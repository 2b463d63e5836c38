import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, count

import pytest

from alignedchains.chains import signed_faces
from alignedchains.exactness import (
    ColumnEchelon,
    _element_matching,
    aligned_exactness,
    full_exactness,
    rank_of_columns,
    verify_exactness,
)
from alignedchains.flatmate import (
    ProductComplex,
    flatmate_exactness,
    flatmate_tuples,
)
from alignedchains.limits import CapExceeded
from alignedchains.trees import (
    aligned_tuples,
    build_tree,
    is_aligned,
    path_tree,
    random_tree,
    regular_ball,
)
from reference import is_flatmate
from small_trees import nonisomorphic_trees


def test_column_echelon_rank():
    # the third column depends on the first two; in the second case the
    # leading values are not units, so the reduction scales the column
    for first, second, dependent in [
        ({0: 1, 1: 2}, {0: 1}, {0: 3, 1: 2}),
        ({1: 2, 0: 1}, {1: 1}, {1: 3, 0: 5}),
    ]:
        ech = ColumnEchelon()
        assert ech.insert(first)
        assert ech.insert(second)
        assert not ech.insert(dependent)
        assert ech.rank == 2


def test_rank_of_columns_early_stop():
    cols = [{i: 1} for i in range(10)]
    assert rank_of_columns(cols, target=4) == 4
    assert rank_of_columns(cols) == 10


def test_full_complex_exact_small():
    for n_points in (1, 2, 3, 5):
        records = full_exactness(n_points, 2)
        assert all(rec.exact for rec in records)
        for rec in records:
            assert rec.dim == math.comb(n_points, rec.degree + 1)


def test_degree_zero_bookkeeping():
    records = full_exactness(4, 0)
    assert records[0].degree == 0
    assert records[0].dim == 4
    # augmentation kernel: dim C0 - 1
    assert records[0].kernel_dim == 3
    assert records[0].image_rank == 3
    assert records[0].exact


def test_aligned_exactness_tripod_and_star():
    tripod = build_tree([(0, 1), (0, 2), (0, 3)])
    assert all(rec.exact for rec in aligned_exactness(tripod, 3))
    star = build_tree([(0, i) for i in range(1, 6)])
    assert all(rec.exact for rec in aligned_exactness(star, 3))


def test_aligned_exactness_path_matches_full():
    # on a path every tuple is aligned, so the subcomplex is the full one
    p = path_tree(6)
    full = full_exactness(6, 3)
    aligned = aligned_exactness(p, 3)
    assert [rec.to_record() for rec in full] == [rec.to_record() for rec in aligned]


def filtered_levels(vertices, keep, top_size):
    """Levels of the subsets of `vertices` kept by `keep`, sizes 1..top_size."""
    return [
        [tup for tup in combinations(vertices, size) if keep(tup)]
        for size in range(1, top_size + 1)
    ]


def test_membership_must_be_face_closed():
    # size-2 family without its size-1 faces
    def membership(tup):
        return len(tup) != 1 or tup[0] == 0

    with pytest.raises(ValueError, match="closed under faces"):
        verify_exactness(filtered_levels(range(4), membership, 3), 1)


def test_face_closure_checked_past_the_early_stop():
    # (3, 4) is missing, but the triples that have it as a face come after
    # the elimination has already reached its kernel-dimension bound
    levels = filtered_levels(range(5), lambda tup: tup != (3, 4), 3)
    with pytest.raises(ValueError, match="closed under faces"):
        verify_exactness(levels, 1)


def test_dim_cap_enforced():
    with pytest.raises(CapExceeded):
        full_exactness(40, 3, dim_cap=1000)


def test_aligned_exactness_cap_stops_before_the_level_is_built():
    t = regular_ball(3, 8)  # 292 995 aligned pairs
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="size 2 passed the cap 1000"):
            aligned_exactness(t, 0, dim_cap=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_record_shape():
    rec = full_exactness(5, 1)[1]
    data = rec.to_record()
    assert set(data) == {"degree", "dim", "image_rank", "kernel_dim", "exact"}
    assert data["dim"] == 10


def test_regular_ball_aligned_exact():
    t = regular_ball(3, 2)
    records = aligned_exactness(t, 2)
    assert [rec.exact for rec in records] == [True, True, True]


# The 6-vertex real projective plane: H_1 is Z/2, so its boundary ranks
# differ between GF(2) and Q.
RP2_TRIANGLES = [
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
]


TRIPOD = build_tree([(0, 1), (0, 2), (0, 3)])


def rp2_membership(tup):
    return any(set(tup) <= set(tri) for tri in RP2_TRIANGLES)


def test_fallback_recovers_rational_rank():
    # the rank over Q; over GF(2) it would be 9
    edges = sorted({tri[:j] + tri[j + 1 :] for tri in RP2_TRIANGLES for j in range(3)})
    row = {edge: i for i, edge in enumerate(edges)}
    columns = [
        {row[tri[:j] + tri[j + 1 :]]: (-1) ** j for j in range(3)}
        for tri in RP2_TRIANGLES
    ]
    assert rank_of_columns(columns) == 10

    records = verify_exactness(filtered_levels(range(6), rp2_membership, 4), 2)
    assert records[1].dim == 15
    assert records[1].image_rank == records[1].kernel_dim == 10
    assert all(rec.exact for rec in records)


def _records(records):
    return [rec.to_record() for rec in records]


def dense_rank(columns, row_count):
    """Rank over Q by dense Gaussian elimination on Fractions: the
    reference the sparse integer echelon is checked against."""
    rows = [[Fraction(col.get(r, 0)) for r in range(row_count)] for col in columns]
    rank = 0
    for r in range(row_count):
        lead = next((i for i in range(rank, len(rows)) if rows[i][r]), None)
        if lead is None:
            continue
        rows[rank], rows[lead] = rows[lead], rows[rank]
        top = rows[rank][r:]  # the rows below are zero left of r
        for row in rows[rank + 1 :]:
            if row[r]:
                factor = row[r] / top[0]
                row[r:] = [a - factor * b if b else a for a, b in zip(row[r:], top)]
        rank += 1
    return rank


def boundary_columns(low, high):
    index = {tup: i for i, tup in enumerate(low)}
    return [{index[face]: sign for face, sign in signed_faces(tup)} for tup in high]


def assert_ranks_match_dense(levels):
    """Untargeted `rank_of_columns` equals `dense_rank` on the boundary
    between each pair of consecutive levels."""
    for low, high in zip(levels, levels[1:]):
        columns = boundary_columns(low, high)
        assert rank_of_columns(columns) == dense_rank(columns, len(low)), high[:1]


def dense_records(levels, n_max, ranks=None):
    """Degree records built from `dense_rank` alone, given the boundary
    ranks between consecutive levels or computing them."""
    if ranks is None:
        ranks = [
            dense_rank(boundary_columns(low, high), len(low))
            for low, high in zip(levels, levels[1:])
        ]
    ranks = [min(len(levels[0]), 1), *ranks]  # the augmentation first
    return [
        {
            "degree": n,
            "dim": len(levels[n]),
            "image_rank": ranks[n + 1],
            "kernel_dim": len(levels[n]) - ranks[n],
            "exact": ranks[n + 1] == len(levels[n]) - ranks[n],
        }
        for n in range(n_max + 1)
    ]


def clique_levels(vertex_count, edge_probability, seed, top_size):
    rng = random.Random(seed)
    pairs = combinations(range(vertex_count), 2)
    edges = {e for e in pairs if rng.random() < edge_probability}
    return [
        [
            tup
            for tup in combinations(range(vertex_count), size)
            if all(e in edges for e in combinations(tup, 2))
        ]
        for size in range(1, top_size + 1)
    ]


@lru_cache(maxsize=None)
def small_tree_dense_ranks():
    """Aligned levels of sizes 1..5 of the 95 trees on 1..9 vertices, each
    with the `dense_rank` of its boundaries."""
    trees = [t for n in range(1, 10) for t in nonisomorphic_trees(n)]
    assert len(trees) == 95  # unlabeled trees on 1..9 vertices
    result = []
    for t in trees:
        levels = [aligned_tuples(t, size) for size in range(1, 6)]
        columns = [boundary_columns(low, high) for low, high in zip(levels, levels[1:])]
        ranks = [dense_rank(c, len(low)) for c, low in zip(columns, levels)]
        result.append((levels, columns, ranks))
    return result


def test_rank_matches_dense_elimination_on_small_trees():
    for levels, columns, ranks in small_tree_dense_ranks():
        assert [rank_of_columns(c) for c in columns] == ranks, levels[1][:1]


def test_rank_matches_dense_elimination_on_products_and_clique_complexes():
    products = [
        ProductComplex(path_tree(3), path_tree(3)),
        ProductComplex(regular_ball(3, 1), path_tree(3)),
    ]
    # On the second product the flatmate filter drops tuples.
    assert len(flatmate_tuples(products[1], 3)) < math.comb(12, 3)
    for p in products:
        assert_ranks_match_dense([flatmate_tuples(p, size) for size in range(1, 6)])
    rp2 = [
        [tup for tup in combinations(range(6), size) if rp2_membership(tup)]
        for size in (1, 2, 3)
    ]
    assert_ranks_match_dense(rp2)
    assert_ranks_match_dense(clique_levels(16, 0.6, 1, 5))


def record_inserts(monkeypatch):
    """Record the column of every `ColumnEchelon.insert` call."""
    inserted = []
    insert = ColumnEchelon.insert

    def recording_insert(self, column):
        inserted.append(tuple(sorted(column.items())))
        return insert(self, column)

    monkeypatch.setattr(ColumnEchelon, "insert", recording_insert)
    return inserted


def test_inexact_degree_inserts_each_column_once(monkeypatch):
    inserted = record_inserts(monkeypatch)
    levels = clique_levels(16, 0.6, 1, 4)
    records = verify_exactness(levels, 2)
    assert not records[2].exact  # the elimination runs out of columns here
    assert len(inserted) == len(set(inserted))


def test_bases_must_be_face_closed_past_the_early_stop():
    # the one-pass form of the membership test above: (3, 4) is missing
    levels = [
        [tup for tup in combinations(range(5), size) if tup != (3, 4)]
        for size in (1, 2, 3)
    ]
    with pytest.raises(ValueError, match="closed under faces"):
        verify_exactness(levels, 1)
    with pytest.raises(ValueError, match="closed under faces"):
        verify_exactness(iter(levels), 1)
    # a pair whose vertex is missing fails before any early stop
    with pytest.raises(ValueError, match="closed under faces"):
        verify_exactness([[(0,), (1,)], [(0, 1), (0, 2)]], 0)


def test_bases_are_read_up_to_n_max_plus_two():
    def levels():
        for size in count(1):
            if size > 3:
                raise AssertionError("read a level past n_max + 2")
            yield combinations(range(5), size)

    assert _records(verify_exactness(levels(), 1)) == _records(full_exactness(5, 1))
    with pytest.raises(ValueError, match="2 levels, 3 needed"):
        verify_exactness([[(0,)], []], 1)


@pytest.mark.parametrize(
    "p, n_max",
    [
        (ProductComplex(regular_ball(3, 2), path_tree(3)), 2),
        (ProductComplex(TRIPOD, TRIPOD), 3),
        (ProductComplex(random_tree(9, "flat:0"), random_tree(7, "flat:1")), 1),
        (ProductComplex(random_tree(9, "flat:2"), random_tree(7, "flat:3")), 1),
    ],
)
def test_one_pass_flatmate_bases_match_per_size_bases(p, n_max):
    sizes = range(1, n_max + 3)
    per_size = verify_exactness([flatmate_tuples(p, size) for size in sizes], n_max)
    membership = verify_exactness(
        filtered_levels(p.vertices(), lambda tup: is_flatmate(p, tup), n_max + 2),
        n_max,
    )
    one_pass = flatmate_exactness(p, n_max)
    assert _records(one_pass) == _records(per_size) == _records(membership)
    # the filter drops tuples from the top level
    assert len(flatmate_tuples(p, n_max + 2)) < math.comb(p.vertex_count, n_max + 2)


def test_one_pass_aligned_bases_match_per_size_bases():
    for n in range(1, 9):
        for t in nonisomorphic_trees(n):
            records = _records(aligned_exactness(t, 3))
            membership = verify_exactness(
                filtered_levels(t.vertices(), lambda tup: is_aligned(t, tup), 5), 3
            )
            assert records == _records(membership)
            # a one-vertex second factor makes flatmate tuples aligned ones
            flat = flatmate_exactness(ProductComplex(t, path_tree(1)), 3)
            assert records == _records(flat)


def check_matching(levels, pairs):
    """Check, without the producer's code, that `pairs` is an acyclic
    matching on the complex with the empty cell and the cells of `levels`.

    Each pair is a cell and its face without one vertex, and no cell is in
    two pairs.  In the modified Hasse digraph (tuple -> face, reversed on
    pairs) every directed cycle lies on two consecutive levels, so Kahn's
    algorithm must empty the digraph on each such pair of levels.
    """
    cells = [[()], *levels]
    present = set(chain.from_iterable(cells))
    partner = {}
    for low, high in pairs:
        assert low in present and high in present, (low, high)
        assert len(high) == len(low) + 1 and set(low) < set(high), (low, high)
        assert low not in partner and high not in partner, (low, high)
        partner[low], partner[high] = high, low
    for lower, upper in zip(cells, cells[1:]):
        successors = {cell: [] for cell in chain(lower, upper)}
        indegree = dict.fromkeys(successors, 0)
        for tup in upper:
            for face in combinations(tup, len(tup) - 1):
                assert face in successors, (face, tup)
                src, dst = (face, tup) if partner.get(tup) == face else (tup, face)
                successors[src].append(dst)
                indegree[dst] += 1
        ready = [cell for cell, d in indegree.items() if not d]
        removed = 0
        while ready:
            removed += 1
            for cell in successors[ready.pop()]:
                indegree[cell] -= 1
                if not indegree[cell]:
                    ready.append(cell)
        assert removed == len(indegree), f"the matching closes a cycle on {upper[:1]}"


def producer_matching(levels):
    levels = [sorted(level) for level in levels]
    return levels, list(_element_matching(levels, [set(b) for b in levels]))


def test_check_matching_rejects_a_two_level_cycle():
    # the hollow triangle, each vertex paired with the next edge round it
    levels = [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]]
    check_matching(levels, [((), (0,)), ((1,), (1, 2))])
    cycle = [((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))]
    with pytest.raises(AssertionError, match="closes a cycle"):
        check_matching(levels, cycle)
    with pytest.raises(AssertionError):
        check_matching(levels, [((0,), (0, 1)), ((0,), (0, 2))])  # (0,) twice


def test_element_matching_is_acyclic():
    complexes = [
        [aligned_tuples(t, size) for size in range(1, 6)]
        for n in range(1, 13)
        for t in nonisomorphic_trees(n)
    ]
    assert len(complexes) == 987  # the trees of criterion 5
    for p in (
        ProductComplex(path_tree(3), path_tree(3)),
        ProductComplex(regular_ball(3, 1), path_tree(3)),
    ):
        complexes.append([flatmate_tuples(p, size) for size in range(1, 5)])
    complexes.append(filtered_levels(range(6), rp2_membership, 4))
    complexes.append(clique_levels(16, 0.6, 1, 4))
    for levels in complexes:
        check_matching(*producer_matching(levels))


@pytest.mark.parametrize(
    "levels, n_max",
    [
        (filtered_levels(range(6), rp2_membership, 4), 2),
        (clique_levels(16, 0.6, 1, 4), 2),
    ],
    ids=["rp2", "clique"],
)
def test_critical_cells_fall_back_to_elimination(monkeypatch, levels, n_max):
    inserts = record_inserts(monkeypatch)
    records = _records(verify_exactness(levels, n_max))
    assert inserts
    assert records == dense_records(levels, n_max)


def test_small_trees_are_certified_without_elimination(monkeypatch):
    inserts = record_inserts(monkeypatch)
    for levels, _, ranks in small_tree_dense_ranks():
        records = _records(verify_exactness(levels, 3))
        assert records == dense_records(levels, 3, ranks), levels[0]
    assert not inserts


def test_edge_case_records():
    # (degree, dim, image_rank, kernel_dim, exact)
    def rows(records):
        return [tuple(rec.to_record().values()) for rec in records]

    assert rows(full_exactness(0, 2)) == [(n, 0, 0, 0, True) for n in range(3)]
    assert rows(full_exactness(1, 2)) == [
        (0, 1, 0, 0, True), (1, 0, 0, 0, True), (2, 0, 0, 0, True)
    ]
    assert rows(aligned_exactness(path_tree(1), 3)) == [
        (0, 1, 0, 0, True), (1, 0, 0, 0, True), (2, 0, 0, 0, True), (3, 0, 0, 0, True)
    ]
    assert rows(full_exactness(0, 0)) == [(0, 0, 0, 0, True)]
    assert rows(full_exactness(4, 0)) == [(0, 4, 3, 3, True)]
    assert rows(aligned_exactness(TRIPOD, 0)) == [(0, 4, 3, 3, True)]


def test_a_repeated_tuple_is_rejected():
    levels = [list(combinations(range(4), size)) for size in (1, 2, 3)]
    levels[1].append((0, 1))
    with pytest.raises(ValueError, match=r"\(0, 1\) twice in the level of size 2"):
        verify_exactness(levels, 1)
    # the top level is read for its faces only, yet a repeat there is caught
    levels = [list(combinations(range(4), size)) for size in (1, 2, 3)]
    levels[2].insert(1, (0, 1, 2))
    with pytest.raises(ValueError, match=r"\(0, 1, 2\) twice in the level of size 3"):
        verify_exactness(levels, 1)


ORDER_FAMILIES = {
    "random-tree": ([aligned_tuples(random_tree(16, "order"), s) for s in range(1, 6)], 3),
    "regular-ball": ([aligned_tuples(regular_ball(3, 2), s) for s in range(1, 6)], 3),
    "path-product": (
        [flatmate_tuples(ProductComplex(path_tree(3), path_tree(3)), s) for s in range(1, 5)],
        2,
    ),
    "rp2": (filtered_levels(range(6), rp2_membership, 4), 2),
    "clique": (clique_levels(16, 0.6, 1, 4), 2),
}


@pytest.mark.parametrize("name", list(ORDER_FAMILIES))
def test_level_order_changes_no_verdict(name):
    levels, n_max = ORDER_FAMILIES[name]
    levels = [sorted(level) for level in levels]
    rng = random.Random(f"order:{name}")
    reorders = [[level[::-1] for level in levels], [rng.sample(b, len(b)) for b in levels]]
    records = _records(verify_exactness(levels, n_max))
    pairs = set(_element_matching(levels, [set(b) for b in levels]))
    for reordered in reorders:
        assert _records(verify_exactness(reordered, n_max)) == records
        # the vertex level is sorted, as verify_exactness sorts it
        reordered[0].sort()
        free = [set(b) for b in reordered]
        assert set(_element_matching(reordered, free)) == pairs
