from itertools import combinations

import pytest

from alignedchains.orbits import (
    _signature_data,
    aligned_signature,
    orbit_class_census,
    orbit_witness,
)
from alignedchains.trees import (
    aligned_tuples,
    build_tree,
    extend_partial_isometry,
    is_aligned,
    path_tree,
    regular_ball,
)


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
    assert a.class_key == b.class_key


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
    assert s01.class_key == s23.class_key == s12.class_key
    assert s01.class_key == (0, (1,))


def test_even_spine_keeps_two_type_classes():
    p = path_tree(5)
    s02 = aligned_signature(p, (0, 2))
    s13 = aligned_signature(p, (1, 3))
    assert s02.class_key == (0, (2,))
    assert s13.class_key == (1, (2,))
    assert s02.class_key != s13.class_key
    # without the type bit they collapse
    assert (
        aligned_signature(p, (0, 2), type_preserving=False).class_key
        == aligned_signature(p, (1, 3), type_preserving=False).class_key
    )


def test_witness_identity():
    t = regular_ball(3, 3)
    res = orbit_witness(t, (0, 1), (0, 1))
    assert res.ok
    assert res.isometry.apply(0) == 0


def test_witness_shift_pair():
    t = regular_ball(3, 5)
    res = orbit_witness(t, (0, 1), (1, 4))
    assert res.ok
    iso = res.isometry
    iso.validate(t)
    assert iso.has_even_displacement(t)
    assert {iso.apply(0), iso.apply(1)} == {1, 4}


def test_witness_reversal_between_adjacent_edges():
    # the reflection that carries (0,1) onto (1,2) displaces evenly
    p = path_tree(4)
    res = orbit_witness(p, (0, 1), (1, 2))
    assert res.ok
    assert res.isometry.has_even_displacement(p)


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
    domain = sorted(iso.domain())
    for pair in combinations(domain, 2):
        if not is_aligned(t, pair):
            continue
        image = tuple(iso.apply(v) for v in pair)
        assert (
            aligned_signature(t, pair).class_key
            == aligned_signature(t, image).class_key
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
                key = aligned_signature(tree, tup, type_preserving).class_key
                rep = reps.setdefault(key, tup)
                _, spine_x = _signature_data(tree, rep, type_preserving)
                _, spine_y = _signature_data(tree, tup, type_preserving)
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


def test_census_vertices():
    t = regular_ball(3, 4)
    tp = orbit_class_census(t, 0, 2)
    assert tp.class_count == 2
    assert tp.all_witnessed
    full = orbit_class_census(t, 0, 2, type_preserving=False)
    assert full.class_count == 1
    assert full.all_witnessed


def test_census_pairs_diameter_two():
    t = regular_ball(3, 4)
    tp = orbit_class_census(t, 1, 2)
    assert tp.class_count == 3
    assert {rec.gaps for rec in tp.classes} == {(1,), (2,)}
    assert tp.all_witnessed
    assert tp.ball_too_small == 0
    full = orbit_class_census(t, 1, 2, type_preserving=False)
    assert full.class_count == 2
    assert full.all_witnessed


def test_census_records_sizes_add_up():
    t = regular_ball(3, 4)
    rep = orbit_class_census(t, 1, 2)
    assert sum(rec.size for rec in rep.classes) == rep.total_tuples
    for rec in rep.classes:
        data = rec.to_record()
        assert set(data) == {"type_bit", "gaps", "size", "witnessed"}


def test_census_counts_ball_too_small():
    # the root's class holds the leaves, whose single neighbour cannot
    # receive the root's three
    t = regular_ball(3, 2)
    census = orbit_class_census(t, 0, 1)
    members: dict[tuple, list[tuple[int, ...]]] = {}
    for v in t.vertices():
        members.setdefault(aligned_signature(t, (v,)).class_key, []).append((v,))
    expected = sum(
        orbit_witness(t, group[0], tup).status == "ball_too_small"
        for group in members.values()
        for tup in group
    )
    assert census.ball_too_small == expected > 0
    assert not census.all_witnessed


def test_census_rejects_root_outside_tree():
    t = regular_ball(3, 2)
    for root in (t.vertex_count, 999, -1):
        with pytest.raises(ValueError, match="root"):
            orbit_class_census(t, 1, 2, root=root)
    # a negative root must not be read as a vertex from the end
    assert set(t._dist_cache) <= set(t.vertices())
