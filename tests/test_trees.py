import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignedchains.trees import (
    PartialIsometry,
    Tree,
    aligned_spines,
    aligned_tuples,
    build_tree,
    convex_hull,
    diametral_pair,
    extend_partial_isometry,
    geodesic,
    is_aligned,
    parse_edge_list,
    path_tree,
    project_to_segment,
    random_tree,
    regular_ball,
    tree_from_pruefer,
)
from reference import bfs_geodesic, bfs_median, bfs_row
from small_trees import nonisomorphic_trees


def tripod() -> Tree:
    return build_tree([(0, 1), (0, 2), (0, 3)])


def test_build_tree_rejects_bad_input():
    with pytest.raises(ValueError):
        build_tree([(0, 0)])
    with pytest.raises(ValueError):
        build_tree([(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        build_tree([(0, 1), (2, 3), (1, 2), (0, 3)])  # cycle
    with pytest.raises(ValueError):
        build_tree([(0, 1), (3, 4)])  # gap in ids


def test_build_tree_builds_no_rooted_index(row_reads):
    # the connectivity check walks the edges without reading a distance
    # row or building the rooted index
    trees = [
        tripod(),
        path_tree(5),
        regular_ball(3, 3),
        random_tree(30, 7),
        tree_from_pruefer((0, 0)),
    ]
    assert row_reads == []
    assert all("rooted" not in vars(t) for t in trees)
    # right edge count, but a triangle plus a stray edge
    with pytest.raises(ValueError, match="connected"):
        build_tree([(0, 1), (1, 2), (2, 0), (3, 4)])


def test_parse_edge_list_comments_and_errors():
    edges = parse_edge_list("0 1\n# spine\n1 2  # inline\n\n")
    assert edges == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2")
    with pytest.raises(ValueError):
        parse_edge_list("a b")


def test_path_tree_shape():
    t = path_tree(5)
    assert t.vertex_count == 5
    assert t.distance(0, 4) == 4
    assert t.degree(0) == 1 and t.degree(2) == 2
    with pytest.raises(ValueError):
        path_tree(0)


def test_regular_ball_counts():
    # 1 + 3 + 6 + 12 vertices at radius 3.
    t = regular_ball(3, 3)
    assert t.vertex_count == 22
    assert t.degree(0) == 3
    leaves = [v for v in t.vertices() if t.degree(v) == 1]
    assert all(t.distance(0, v) == 3 for v in leaves)
    assert len(leaves) == 12


def test_regular_ball_cap():
    from alignedchains.limits import CapExceeded

    with pytest.raises(CapExceeded):
        regular_ball(3, 20, vertex_cap=1000)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_random_tree_is_tree(n, seed):
    t = random_tree(n, seed)
    assert t.vertex_count == n
    assert sum(t.degree(v) for v in t.vertices()) == 2 * (n - 1)
    assert all(d >= 0 for d in t.distances_from(0))


def test_pruefer_decode_known():
    # seq (0, 0) is the star with center 0 on 4 vertices
    t = tree_from_pruefer((0, 0))
    assert sorted(t.adjacency[0]) == [1, 2, 3]


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_geodesic_matches_distance(n, seed):
    t = random_tree(n, seed)
    import random as _random

    rng = _random.Random(seed)
    for _ in range(10):
        u, v = rng.randrange(n), rng.randrange(n)
        path = geodesic(t, u, v)
        assert path[0] == u and path[-1] == v
        assert len(path) == t.distance(u, v) + 1
        assert all(t.distance(a, b) == 1 for a, b in zip(path, path[1:]))


def assert_index_matches_bfs(t, pairs, triples):
    """distance, geodesic and the median against breadth-first rows."""
    rows = {}

    def row(v):
        if v not in rows:
            rows[v] = bfs_row(t, v)
        return rows[v]

    for u, v in pairs:
        assert t.distance(u, v) == row(u)[v]
        assert geodesic(t, u, v) == bfs_geodesic(t, u, v, row(v))
    for a, b, c in triples:
        for v in (a, b, c):
            row(v)
        # the nearest point of [b, c] to a is the median of the three
        assert project_to_segment(t, a, b, c) == bfs_median(rows, a, b, c)


@pytest.mark.parametrize("n", range(1, 9))
def test_rooted_index_matches_bfs_on_every_small_tree(n):
    for t in nonisomorphic_trees(n):
        ids = t.vertices()
        assert_index_matches_bfs(t, product(ids, repeat=2), product(ids, repeat=3))


def test_rooted_index_matches_bfs_on_large_and_random_trees():
    # the long path checks that building the index does not recurse
    cases = [path_tree(3000)] + [random_tree(n, f"index:{n}") for n in (2, 9, 80, 400)]
    for t in cases:
        rng = random.Random(t.vertex_count)
        ids = range(t.vertex_count)
        pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(60)]
        triples = [tuple(rng.choice(ids) for _ in range(3)) for _ in range(60)]
        assert_index_matches_bfs(t, pairs, triples)
    t = path_tree(3000)
    assert t.distance(0, 2999) == 2999
    assert geodesic(t, 2999, 0) == list(range(2999, -1, -1))


def test_rooted_index_is_lazy_and_not_a_field():
    t, twin = random_tree(12, "lazy"), random_tree(12, "lazy")
    assert "rooted" not in vars(t)
    t.distance(0, 5)
    assert "rooted" in vars(t)
    assert t == twin and repr(t) == repr(twin)
    assert t.rooted.depth == t.distances_from(0)


def test_project_to_segment_cases():
    t = tripod()
    assert project_to_segment(t, 3, 1, 2) == 0
    assert project_to_segment(t, 1, 1, 2) == 1
    p = path_tree(6)
    assert project_to_segment(p, 5, 0, 3) == 3
    assert project_to_segment(p, 2, 0, 5) == 2


def test_convex_hull_tripod():
    t = tripod()
    assert convex_hull(t, (1, 2, 3)) == frozenset({0, 1, 2, 3})
    assert convex_hull(t, (1, 2)) == frozenset({0, 1, 2})
    # geodesics from the lowest entry cover every pair's geodesic
    for n in (5, 12, 30):
        r = random_tree(n, f"hull:{n}")
        rng = random.Random(n)
        for _ in range(20):
            tup = rng.sample(range(n), rng.randint(1, 5))
            paths = (geodesic(r, a, b) for a, b in combinations(tup, 2))
            assert convex_hull(r, tup) == {tup[0]}.union(*paths)


def test_is_aligned():
    t = tripod()
    assert is_aligned(t, (1, 0, 2))
    assert not is_aligned(t, (1, 2, 3))
    assert is_aligned(t, (1, 1, 1))  # <= 2 distinct points
    p = path_tree(7)
    assert is_aligned(t, (2,))
    assert is_aligned(p, (0, 3, 6, 1))


def test_segment_offsets_meet_the_geodesic():
    t = random_tree(15, "offsets")
    for u, v in ((0, 14), (3, 9), (5, 5)):
        seg = geodesic(t, u, v)
        for w in t.vertices():
            # the meet point is the segment point nearest to w, by brute force
            dw = t.distances_from(w)
            assert project_to_segment(t, w, u, v) == min(seg, key=dw.__getitem__)


def test_diametral_pair():
    t = tripod()
    assert diametral_pair(t, (2, 0, 1)) == (1, 2)
    assert diametral_pair(t, (1, 2, 3)) is None
    assert diametral_pair(t, (3,)) == (3, 3)
    assert diametral_pair(t, (3, 1, 3)) == (1, 3)
    assert diametral_pair(path_tree(7), (4, 0, 6, 1)) == (0, 6)


def test_aligned_tuples_counts():
    t = tripod()
    # pairs are all aligned; of the four triples only those through 0
    assert len(aligned_tuples(t, 2)) == 6
    assert sorted(aligned_tuples(t, 3)) == [(0, 1, 2), (0, 1, 3), (0, 2, 3)]
    assert aligned_tuples(t, 4) == []
    p = path_tree(5)
    # every subset of a path is aligned
    assert len(aligned_tuples(p, 3)) == 10


def test_aligned_tuples_no_duplicates():
    t = regular_ball(3, 2)
    tuples = aligned_tuples(t, 3)
    assert len(tuples) == len(set(tuples))
    assert all(is_aligned(t, tup) for tup in tuples)
    assert all(tup == tuple(sorted(tup)) for tup in tuples)


def brute_aligned(t, size, region, cap):
    """Oracle: every sorted tuple of the region, filtered."""
    return [
        tup
        for tup in combinations(sorted(region), size)
        if is_aligned(t, tup)
        and max(t.distance(a, b) for a in tup for b in tup) <= cap
    ]


@pytest.mark.parametrize(
    "t, root",
    [
        (regular_ball(3, 3), 0),
        (regular_ball(3, 3), 7),
        (random_tree(30, "restrict"), 11),
    ],
)
def test_aligned_tuples_restricted_match_brute_force(t, root):
    droot = t.distances_from(root)
    regions = [
        [v for v in t.vertices() if droot[v] <= 3],
        # not convex: geodesic interiors leave it
        [v for v in t.vertices() if droot[v] <= 4 and v % 3],
    ]
    for region in regions:
        for cap in (1, 2, 3, t.vertex_count):
            for size in (1, 2, 3, 4):
                got = aligned_tuples(t, size, vertices=region, max_length=cap)
                assert got == brute_aligned(t, size, region, cap)
    unrestricted = aligned_tuples(t, 3)
    assert aligned_tuples(t, 3, vertices=reversed(t.vertices())) == unrestricted
    assert aligned_tuples(t, 3, max_length=t.vertex_count) == unrestricted


@pytest.mark.parametrize("t", [regular_ball(3, 3), random_tree(30, "spines")])
def test_aligned_spines_are_extremal_geodesics(t):
    region = [v for v in t.vertices() if v % 3]
    for size in (1, 2, 3):
        for kwargs in ({}, {"vertices": region, "max_length": 3}):
            pairs = list(aligned_spines(t, size, **kwargs))
            assert sorted(tup for tup, _ in pairs) == aligned_tuples(t, size, **kwargs)
            for tup, spine in pairs:
                assert list(spine) == geodesic(t, *diametral_pair(t, tup))


def test_partial_isometry_validate():
    p = path_tree(5)
    PartialIsometry({0: 2, 1: 3}).validate(p)
    with pytest.raises(ValueError):
        PartialIsometry({0: 2, 1: 2}).validate(p)
    with pytest.raises(ValueError):
        PartialIsometry({0: 0, 2: 1}).validate(p)


def test_partial_isometry_displacement():
    p = path_tree(6)
    shift = PartialIsometry({0: 2, 1: 3})
    assert shift.has_even_displacement(p)
    odd = PartialIsometry({0: 1})
    assert not odd.has_even_displacement(p)


def test_extend_partial_isometry_shift():
    # two seed points pin the orientation, so the extension is the shift
    p = path_tree(8)
    ext = extend_partial_isometry(p, {0: 2, 1: 3}, targets=[4])
    assert ext is not None
    assert ext.apply(4) == 6
    ext.validate(p)


def test_extend_partial_isometry_free_seed():
    # a single-point seed leaves orientation to the greedy search; the
    # result is unspecified beyond being a valid isometry covering targets
    p = path_tree(8)
    ext = extend_partial_isometry(p, {3: 3}, targets=[0, 6])
    assert ext is not None
    assert {0, 6} <= ext.domain()
    ext.validate(p)


def test_extend_partial_isometry_blocked():
    # no room: shifting the long arm off the end of the path
    p = path_tree(4)
    assert extend_partial_isometry(p, {0: 2}, targets=[3]) is None


def test_extend_partial_isometry_reversal():
    p = path_tree(7)
    ext = extend_partial_isometry(p, {1: 5, 5: 1}, targets=[0, 6])
    assert ext is not None
    assert ext.apply(0) == 6 and ext.apply(6) == 0
    ext.validate(p)
