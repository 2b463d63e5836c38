import ast
import random
import re
from collections import Counter
from itertools import combinations

import pytest

from alignedchains import orbits
from alignedchains.orbits import (
    CertificateError,
    _certified_frame,
    _certify_images,
    _frame_images,
    _signature_data,
    _spine_frame,
    aligned_signature,
    orbit_class_census,
    orbit_witness,
)
from alignedchains.trees import (
    PartialIsometry,
    aligned_spines,
    aligned_tuples,
    build_tree,
    extend_partial_isometry,
    geodesic,
    is_aligned,
    path_tree,
    random_tree,
    regular_ball,
)
from reference import has_even_displacement


def class_key(sig):
    """The (type, gaps) class of an aligned signature, without its sign."""
    return (sig.type_bit, sig.gaps)


def certify_spine_map(t, spine, mapping):
    """Raise CertificateError unless `mapping`, whose domain is the path
    `spine` plus spine neighbors, is an isometry of its domain: the frame's
    domain half, then the image half."""
    if any(v not in mapping for v in spine):
        raise CertificateError("witness certificate: the spine is not in the domain")
    on_spine = set(spine)
    frame = _certified_frame(t, spine, [w for w in mapping if w not in on_spine])
    _certify_images(t, frame, [mapping[v] for v in frame.domain])


def test_signature_requires_aligned_distinct():
    t = build_tree([(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        aligned_signature(t, (1, 2, 3))
    with pytest.raises(ValueError):
        aligned_signature(t, (1, 1))


def test_signature_gap_reversal_canonical():
    p = path_tree(7)
    a = aligned_signature(p, (0, 1, 3), type_preserving=False)
    b = aligned_signature(p, (3, 5, 6), type_preserving=False)
    assert a.gaps == (1, 2)
    assert class_key(a) == class_key(b)


def test_signature_sort_sign():
    p = path_tree(5)
    assert aligned_signature(p, (0, 1, 3)).sort_sign == 1
    assert aligned_signature(p, (1, 0, 3)).sort_sign == -1


def test_adjacent_pairs_share_signature_along_path():
    # reversal canonicalization folds the two type bits of an odd-length
    # spine into one class, so every edge looks alike even type-preservingly
    p = path_tree(4)
    s01 = aligned_signature(p, (0, 1))
    s23 = aligned_signature(p, (2, 3))
    s12 = aligned_signature(p, (1, 2))
    assert class_key(s01) == class_key(s23) == class_key(s12)
    assert class_key(s01) == (0, (1,))


def test_even_spine_keeps_two_type_classes():
    p = path_tree(5)
    s02 = aligned_signature(p, (0, 2))
    s13 = aligned_signature(p, (1, 3))
    assert class_key(s02) == (0, (2,))
    assert class_key(s13) == (1, (2,))
    assert class_key(s02) != class_key(s13)
    # without the type bit they collapse
    assert (
        class_key(aligned_signature(p, (0, 2), type_preserving=False))
        == class_key(aligned_signature(p, (1, 3), type_preserving=False))
    )


def test_witness_identity():
    t = regular_ball(3, 3)
    res = orbit_witness(t, (0, 1), (0, 1))
    assert res.ok
    assert res.isometry.mapping[0] == 0


def test_witness_shift_pair():
    t = regular_ball(3, 5)
    res = orbit_witness(t, (0, 1), (1, 4))
    assert res.ok
    iso = res.isometry
    iso.validate(t)
    assert has_even_displacement(t, iso.mapping)
    assert {iso.mapping[0], iso.mapping[1]} == {1, 4}


def test_witness_reversal_between_adjacent_edges():
    # the reflection that carries (0,1) onto (1,2) displaces evenly
    p = path_tree(4)
    res = orbit_witness(p, (0, 1), (1, 2))
    assert res.ok
    assert has_even_displacement(p, res.isometry.mapping)


def test_witness_mismatch_and_ball_too_small():
    p = path_tree(4)
    assert orbit_witness(p, (0, 2), (1, 3)).status == "signature_mismatch"
    cramped = orbit_witness(p, (0, 2), (1, 3), type_preserving=False)
    assert cramped.status == "ball_too_small"
    # the same pair has room on a longer path
    roomy = orbit_witness(path_tree(6), (0, 2), (1, 3), type_preserving=False)
    assert roomy.ok


def test_witness_signature_invariance_on_subtuples():
    t = regular_ball(3, 5)
    # shift by two along the line 0-1-4-10-22
    res = orbit_witness(t, (0, 1, 4), (4, 10, 22))
    assert res.ok
    iso = res.isometry
    domain = sorted(iso.mapping)
    for pair in combinations(domain, 2):
        if not is_aligned(t, pair):
            continue
        image = tuple(iso.mapping[v] for v in pair)
        assert class_key(aligned_signature(t, pair)) == class_key(
            aligned_signature(t, image)
        )


@pytest.mark.parametrize("tree", [regular_ball(3, 4), path_tree(4)])
def test_witness_matches_greedy_extension(tree):
    # the search-free extension builds the map the distance-checking
    # greedy builds from the same spine seed, and fails where it fails
    statuses = set()
    for degree in (1, 2):
        for type_preserving in (True, False):
            reps: dict[tuple, tuple[int, ...]] = {}
            for tup in aligned_tuples(tree, degree + 1):
                key, spine_y = _signature_data(tree, tup, type_preserving)
                rep = reps.setdefault(key, tup)
                _, spine_x = _signature_data(tree, rep, type_preserving)
                targets = set(spine_x)
                for v in spine_x:
                    targets.update(tree.adjacency[v])
                greedy = extend_partial_isometry(
                    tree, dict(zip(spine_x, spine_y)), targets
                )
                result = orbit_witness(tree, rep, tup, type_preserving)
                if greedy is None:
                    assert result.status == "ball_too_small", (rep, tup)
                else:
                    assert result.ok, (rep, tup, result.status)
                    assert result.isometry.mapping == greedy.mapping
                statuses.add(result.status)
    assert statuses == {"ok", "ball_too_small"}


@pytest.mark.parametrize(
    "tree",
    [regular_ball(3, 4), random_tree(40, "cert-a"), random_tree(40, "cert-b")],
)
def test_edge_local_certificate_agrees_with_validate(tree):
    # on a spine plus its neighbours, a connected domain, the edge-local
    # certificate and the all-pairs distance check reject the same maps
    rng = random.Random(f"certificates:{tree.vertex_count}")
    vertices = list(tree.vertices())
    verdicts: Counter = Counter()
    for _ in range(200):
        u = rng.choice(vertices)
        near_u = tree.distances_from(u)
        v = rng.choice([w for w in vertices if 0 < near_u[w] <= 3])
        spine = geodesic(tree, u, v)
        domain = sorted(set(spine).union(*(tree.adjacency[w] for w in spine)))
        maps = [("random", dict(zip(domain, rng.sample(vertices, len(domain)))))]
        start = rng.choice(vertices)
        row = tree.distances_from(start)
        ends = [w for w in vertices if row[w] == len(spine) - 1]
        seed = dict(zip(spine, geodesic(tree, start, rng.choice(ends)))) if ends else {}
        iso = extend_partial_isometry(tree, seed, domain) if seed else None
        if iso is not None:
            maps.append(("isometry", iso.mapping))
            # near misses: one image moved at most two steps, or two swapped;
            # every distance not involving the moved vertices is kept
            moved = dict(iso.mapping)
            w = rng.choice(domain)
            free = [
                c
                for c in vertices
                if c not in moved.values() and tree.distance(c, moved[w]) <= 2
            ]
            if free:
                moved[w] = rng.choice(free)
                maps.append(("moved", moved))
            swapped = dict(iso.mapping)
            a, b = rng.sample(domain, 2)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            maps.append(("swapped", swapped))
            # a fold sends two neighbours of one vertex to one image: every
            # edge still goes to an edge, but the map is not injective
            folded = dict(iso.mapping)
            hub = max(spine, key=lambda w: len(tree.adjacency[w]))
            a, b = tree.adjacency[hub][:2]
            folded[a] = folded[b]
            maps.append(("folded", folded))
        for kind, mapping in maps:
            try:
                PartialIsometry(mapping).validate(tree)
                by_pairs = True
            except ValueError:
                by_pairs = False
            try:
                certify_spine_map(tree, spine, dict(mapping))
                by_edges = True
            except CertificateError:
                by_edges = False
            assert by_pairs == by_edges, (kind, spine, mapping)
            verdicts[kind, by_pairs] += 1
    assert verdicts["isometry", True] and verdicts["random", False]
    assert verdicts["moved", False] and verdicts["swapped", False]
    assert verdicts["folded", False] and not verdicts["folded", True]


def test_certificate_rejects_a_domain_off_the_spine():
    # a vertex two steps from the spine makes the domain disconnected
    t = path_tree(6)
    with pytest.raises(CertificateError, match="no spine neighbor"):
        certify_spine_map(t, [0, 1], {0: 0, 1: 1, 3: 3})
    with pytest.raises(CertificateError, match="not adjacent"):
        certify_spine_map(t, [0, 2], {0: 0, 2: 2, 1: 1})


@pytest.mark.parametrize("tree", [regular_ball(3, 4), random_tree(40, "frame-reuse")])
def test_one_frame_serves_every_member_of_a_class(tree):
    # the census builds one frame per class from the representative and
    # checks each member by its images alone; that must be the witness
    depth = tree.distances_from(0)
    statuses = set()
    for degree in (1, 2):
        for type_preserving in (True, False):
            frames: dict[tuple, tuple] = {}
            for tup in aligned_tuples(tree, degree + 1):
                key, spine = _signature_data(tree, tup, type_preserving)
                if key not in frames:
                    frames[key] = (tup, _spine_frame(tree, spine))
                rep, frame = frames[key]
                images = _frame_images(tree, frame, spine, type_preserving, depth)
                result = orbit_witness(tree, rep, tup, type_preserving)
                statuses.add(result.status)
                if images is None:
                    assert result.status == "ball_too_small", (rep, tup)
                    continue
                assert result.ok, (rep, tup, result.status)
                mapping = dict(zip(frame.domain, images))
                assert result.isometry.mapping == mapping
                PartialIsometry(mapping).validate(tree)
    assert statuses == {"ok", "ball_too_small"}


def test_image_half_rejects_mutated_images():
    t = regular_ball(3, 5)
    _, spine_x = _signature_data(t, (0, 1, 4), True)
    _, spine_y = _signature_data(t, (4, 10, 22), True)
    frame = _spine_frame(t, spine_x)
    images = _frame_images(t, frame, spine_y, True, t.distances_from(0))
    assert images is not None
    _certify_images(t, frame, images)
    length = len(frame.domain) - len(frame.anchors)

    swapped = list(images)
    swapped[0], swapped[length - 1] = swapped[length - 1], swapped[0]
    with pytest.raises(CertificateError, match="goes to the non-edge"):
        _certify_images(t, frame, swapped)

    # a fold sends two off-spine neighbours of one anchor to one image
    m, k = next(
        (m, k)
        for m, k in combinations(range(len(frame.anchors)), 2)
        if frame.anchors[m] == frame.anchors[k]
    )
    folded = list(images)
    folded[length + m] = folded[length + k]
    with pytest.raises(CertificateError, match="not injective"):
        _certify_images(t, frame, folded)

    # an off-spine image moved to an unused vertex two steps from its
    # anchor's image keeps injectivity but breaks the anchor edge
    anchor_image = images[frame.anchors[0]]
    far = next(
        c
        for c in t.vertices()
        if t.distance(c, anchor_image) == 2 and c not in images
    )
    moved = list(images)
    moved[length] = far
    with pytest.raises(CertificateError, match="goes to the non-edge"):
        _certify_images(t, frame, moved)


def test_census_reads_only_the_root_row(row_reads):
    t = regular_ball(3, 9)
    for type_preserving in (True, False):
        orbit_class_census(t, 1, 7, (type_preserving,))
    assert row_reads == [0, 0]
    # one joint call serves both modes from one read
    row_reads.clear()
    orbit_class_census(t, 1, 7, (True, False))
    assert row_reads == [0]
    # nor does it build the rooted index, whose size grows with the tree
    assert "rooted" not in vars(t)


def census_tuples(t, degree, cap, root=0):
    """The census's tuples, in its sorted order."""
    droot = t.distances_from(root)
    region = [v for v in t.vertices() if droot[v] <= cap + 1]
    return sorted(
        tup for tup, _ in aligned_spines(t, degree + 1, vertices=region, max_length=cap)
    )


def test_joint_census_equals_single_mode_censuses():
    trees = [
        regular_ball(3, 4),
        regular_ball(4, 3),
        regular_ball(3, 2),
        path_tree(4),
        path_tree(9),
        random_tree(40, "joint-census"),
    ]
    too_small = 0
    for t in trees:
        for degree in (0, 1, 2):
            for cap in (degree, degree + 1, degree + 3):
                for root in (0, 1):
                    [tp] = orbit_class_census(t, degree, cap, (True,), root)
                    [full] = orbit_class_census(t, degree, cap, (False,), root)
                    assert orbit_class_census(t, degree, cap, (True, False), root) == (
                        tp,
                        full,
                    )
                    # reports come in the order of `modes`
                    assert orbit_class_census(t, degree, cap, (False, True), root) == (
                        full,
                        tp,
                    )
                    too_small += tp.ball_too_small + full.ball_too_small
    assert too_small > 0


@pytest.mark.parametrize(
    "tree", [regular_ball(3, 4), random_tree(40, "joint-reuse")], ids=["ball", "random"]
)
@pytest.mark.parametrize("degree", [1, 2])
def test_full_census_builds_images_only_where_its_map_differs(tree, degree, monkeypatch):
    # a full-mode member reuses its type-preserving images only when both
    # maps start from the same frame (the representative's oriented spine)
    # and go to the same oriented spine; every tuple costs one type-preserving
    # build, and each representative spine one frame across both modes
    cap = 3
    tuples = census_tuples(tree, degree, cap)
    reps: dict[bool, dict] = {True: {}, False: {}}
    expected_full = same_spine_other_frame = 0
    rep_spines = set()
    for tup in tuples:
        maps = {}
        for tp in (True, False):
            key, spine = _signature_data(tree, tup, tp)
            rep = reps[tp].setdefault(key, tup)
            rep_spine = tuple(_signature_data(tree, rep, tp)[1])
            rep_spines.add(rep_spine)
            maps[tp] = (rep_spine, tuple(spine))
        expected_full += maps[True] != maps[False]
        same_spine_other_frame += maps[True][1] == maps[False][1] != maps[True][0]
    # so reusing on a matching spine alone would miss builds
    assert same_spine_other_frame > 0
    calls: Counter = Counter()
    frames = []
    real_images, real_frame = orbits._frame_images, orbits._spine_frame

    def images_spy(t, frame, spine_y, type_preserving, depth):
        calls[type_preserving] += 1
        return real_images(t, frame, spine_y, type_preserving, depth)

    def frame_spy(t, spine):
        frames.append(tuple(spine))
        return real_frame(t, spine)

    monkeypatch.setattr(orbits, "_frame_images", images_spy)
    monkeypatch.setattr(orbits, "_spine_frame", frame_spy)
    tp, full = orbit_class_census(tree, degree, cap, (True, False))
    assert tp.total_tuples == full.total_tuples == len(tuples)
    assert calls[True] == len(tuples)
    assert calls[False] == expected_full < len(tuples)
    assert sorted(frames) == sorted(rep_spines)


def test_a_broken_full_only_map_names_the_full_census(monkeypatch):
    t = regular_ball(3, 4)
    degree, cap = 1, 3
    certify = orbits._certify_images
    tp_maps = set()

    def record(tree, frame, images):
        tp_maps.add((frame.domain, tuple(images)))
        certify(tree, frame, images)

    monkeypatch.setattr(orbits, "_certify_images", record)
    orbit_class_census(t, degree, cap, (True,))
    broken = []

    def fail_full_only(tree, frame, images):
        if (frame.domain, tuple(images)) not in tp_maps:
            broken.append(dict(zip(frame.domain, images)))
            raise CertificateError("witness certificate: planted")
        certify(tree, frame, images)

    monkeypatch.setattr(orbits, "_certify_images", fail_full_only)
    with pytest.raises(CertificateError) as caught:
        orbit_class_census(t, degree, cap, (True, False))
    monkeypatch.setattr(orbits, "_certify_images", certify)
    named = re.fullmatch(
        r"witness certificate: planted \(in the full census of degree 1: class gaps "
        r"(\(.*?\)), representative (\(.*?\)), member (\(.*?\))\)",
        str(caught.value),
    )
    assert named is not None, str(caught.value)
    gaps, rep, member = map(ast.literal_eval, named.groups())
    key = (None, gaps)
    assert _signature_data(t, member, False)[0] == key
    members = [
        tup for tup in census_tuples(t, degree, cap) if _signature_data(t, tup, False)[0] == key
    ]
    assert rep == members[0]
    # the named pair is the map that failed
    [failed] = broken
    assert orbit_witness(t, rep, member, False).isometry.mapping == failed


@pytest.mark.parametrize("degree", [1, 2])
def test_census_types_from_an_odd_root(degree, row_reads):
    # the root's row gives the same bipartition bit as vertex 0's row
    t = regular_ball(3, 4)
    root, cap = 1, 3
    [census] = orbit_class_census(t, degree, cap, (True,), root=root)
    assert row_reads == [root]
    droot = t.distances_from(root)
    region = [v for v in t.vertices() if droot[v] <= cap + 1]
    expected = Counter(
        class_key(aligned_signature(t, tup))
        for tup, _ in aligned_spines(t, degree + 1, vertices=region, max_length=cap)
    )
    assert {(rec.type_bit, rec.gaps): rec.size for rec in census.classes} == expected


def test_census_vertices():
    t = regular_ball(3, 4)
    [tp] = orbit_class_census(t, 0, 2, (True,))
    assert tp.class_count == 2
    assert tp.all_witnessed
    [full] = orbit_class_census(t, 0, 2, (False,))
    assert full.class_count == 1
    assert full.all_witnessed


def test_census_pairs_diameter_two():
    t = regular_ball(3, 4)
    [tp] = orbit_class_census(t, 1, 2, (True,))
    assert tp.class_count == 3
    assert {rec.gaps for rec in tp.classes} == {(1,), (2,)}
    assert tp.all_witnessed
    assert tp.ball_too_small == 0
    [full] = orbit_class_census(t, 1, 2, (False,))
    assert full.class_count == 2
    assert full.all_witnessed


def test_census_records_sizes_add_up():
    t = regular_ball(3, 4)
    [rep] = orbit_class_census(t, 1, 2, (True,))
    assert sum(rec.size for rec in rep.classes) == rep.total_tuples
    for rec in rep.classes:
        data = rec.to_record()
        assert set(data) == {"type_bit", "gaps", "size", "witnessed"}


def test_census_counts_ball_too_small():
    # the root's class holds the leaves, whose single neighbour cannot
    # receive the root's three
    t = regular_ball(3, 2)
    [census] = orbit_class_census(t, 0, 1, (True,))
    members: dict[tuple, list[tuple[int, ...]]] = {}
    for v in t.vertices():
        members.setdefault(class_key(aligned_signature(t, (v,))), []).append((v,))
    expected = sum(
        orbit_witness(t, group[0], tup).status == "ball_too_small"
        for group in members.values()
        for tup in group
    )
    assert census.ball_too_small == expected > 0
    assert not census.all_witnessed


def test_census_rejects_root_outside_tree(row_reads):
    t = regular_ball(3, 2)
    for root in (t.vertex_count, 999, -1):
        with pytest.raises(ValueError, match="root"):
            orbit_class_census(t, 1, 2, (True, False), root=root)
    # a negative root must not be read as a vertex from the end; no row is
    # read at all
    assert row_reads == []
