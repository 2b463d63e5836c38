import gc
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from alignedchains.chains import AltChain
from alignedchains.flatmate import (
    HomotopyNormReport,
    ProductComplex,
    aligned_boundary_problem,
    flag_growth,
    flatmate_boundary_problem,
    flatmate_exactness,
    flatmate_tuples,
    homotopy_norm_probe,
    hull_problem,
    is_flatmate,
    path_product_family,
    sample_window_cycles,
)
from alignedchains.limits import CapExceeded
from alignedchains.lp import min_l1_preimage
from alignedchains.trees import (
    aligned_tuples,
    build_tree,
    convex_hull,
    path_tree,
    random_tree,
    regular_ball,
)

TRIPOD = build_tree([(0, 1), (0, 2), (0, 3)])

# Products where the flatmate filter drops tuples.
FILTERED_PRODUCTS = [
    ProductComplex(regular_ball(3, 2), path_tree(3)),
    ProductComplex(TRIPOD, TRIPOD),
    ProductComplex(random_tree(9, "flat:0"), random_tree(7, "flat:1")),
    ProductComplex(random_tree(9, "flat:2"), random_tree(7, "flat:3")),
]

# Most candidate tuples one brute-force comparison may test.
BRUTE_LIMIT = 40_000


def hull_windows(p: ProductComplex, count: int, seed: str) -> list[list[int]]:
    """Sorted hull products around window cycles and their pairwise sums;
    the sums can span branch points, where the flatmate filter acts."""
    rng = random.Random(seed)
    cycles = [z for z, _ in sample_window_cycles(p, 1, count, rng)]
    cycles += [a + b for a, b in combinations(cycles, 2)]
    windows = []
    for z in cycles:
        if z.is_zero():
            continue
        coords = [p.decode(v) for key in z.terms for v in key]
        h1 = convex_hull(p.factor1, [a for a, _ in coords])
        h2 = convex_hull(p.factor2, [b for _, b in coords])
        windows.append(sorted(p.encode(a, b) for a in h1 for b in h2))
    return windows


def test_encode_decode_roundtrip():
    p = ProductComplex(path_tree(3), path_tree(4))
    assert p.vertex_count == 12
    for a in range(3):
        for b in range(4):
            assert p.decode(p.encode(a, b)) == (a, b)
    with pytest.raises(ValueError):
        p.encode(3, 0)
    with pytest.raises(ValueError):
        p.decode(12)


def test_is_flatmate():
    p = ProductComplex(TRIPOD, path_tree(2))
    # pairs are always flatmate
    assert is_flatmate(p, (p.encode(1, 0), p.encode(3, 1)))
    # first projection (1, 2, 3) is off every tripod geodesic
    legs = (p.encode(1, 0), p.encode(2, 0), p.encode(3, 0))
    assert not is_flatmate(p, legs)
    # (0, 1, 2) projects onto the geodesic through the center
    ok = (p.encode(1, 0), p.encode(2, 0), p.encode(0, 1))
    assert is_flatmate(p, ok)


def test_path_product_is_full_complex():
    # every tuple in a path is on a geodesic, so nothing is excluded
    p = ProductComplex(path_tree(2), path_tree(2))
    assert flatmate_tuples(p, 3) == list(combinations(range(4), 3))
    assert flatmate_tuples(p, 4) == [(0, 1, 2, 3)]


def test_trivial_second_factor_matches_aligned():
    p = ProductComplex(TRIPOD, path_tree(1))
    for size in (1, 2, 3, 4):
        assert flatmate_tuples(p, size) == aligned_tuples(TRIPOD, size)


def test_flatmate_tuples_rejects_bad_size():
    p = ProductComplex(path_tree(2), path_tree(2))
    with pytest.raises(ValueError):
        flatmate_tuples(p, 0)


def test_flatmate_tuples_leaves_no_garbage():
    # a self-referencing closure would keep each call's lists and product
    # alive until a full collection
    p = ProductComplex(regular_ball(3, 1), path_tree(3))
    gc.collect()
    gc.disable()
    try:
        assert len(flatmate_tuples(p, 3)) < len(list(combinations(range(12), 3)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_flatmate_tuples_over_hull_windows_match_brute_force():
    # summed window cycles have hulls that span the tripod, where the
    # flatmate filter drops tuples
    p = ProductComplex(TRIPOD, path_tree(3))
    rng = random.Random("hull-resume")
    cycles = [z for z, _ in sample_window_cycles(p, 1, 5, rng)]
    cycles += [a + b for a, b in combinations(cycles, 2)]
    dropped = 0
    for z in cycles:
        if z.is_zero():
            continue
        coords = [p.decode(v) for key in z.terms for v in key]
        h1 = convex_hull(p.factor1, [a for a, _ in coords])
        h2 = convex_hull(p.factor2, [b for _, b in coords])
        window = sorted(p.encode(a, b) for a in h1 for b in h2)
        brute = {
            size: [tup for tup in combinations(window, size) if is_flatmate(p, tup)]
            for size in (1, 2, 3, 4)
        }
        for size, expected in brute.items():
            assert flatmate_tuples(p, size, vertices=window[::-1]) == expected
            dropped += len(expected) < math.comb(len(window), size)
        problem = hull_problem(p, 1, z)
        assert problem.rows == tuple(brute[2])
        assert problem.columns == tuple(brute[3])
    assert dropped > 0


@pytest.mark.parametrize("p", FILTERED_PRODUCTS)
def test_flatmate_tuples_match_brute_force_where_the_filter_drops(p):
    # every subset tested by is_flatmate, on the whole product and on hull
    # windows, wherever there are few enough candidates
    windows = [list(p.vertices())] + hull_windows(p, 4, "brute:0")
    dropped = 0
    largest = 0
    for window in windows:
        for size in range(1, 6):
            if math.comb(len(window), size) > BRUTE_LIMIT:
                continue
            expected = [
                tup for tup in combinations(window, size) if is_flatmate(p, tup)
            ]
            assert flatmate_tuples(p, size, vertices=window) == expected
            dropped += len(expected) < math.comb(len(window), size)
            largest = max(largest, size)
    assert dropped > 0
    assert largest == 5


def test_flatmate_levels_stop_at_the_cap():
    # path(12)^2 has 487 344 triples, about 35 MB as tuples; the grower
    # stops once the level passes the cap instead of growing it whole
    p = ProductComplex(path_tree(12), path_tree(12))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="size 3 passed the cap 20000"):
            flatmate_exactness(p, 1, dim_cap=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_flatmate_exactness_small_products():
    for p in (
        ProductComplex(path_tree(2), path_tree(3)),
        ProductComplex(TRIPOD, path_tree(2)),
    ):
        records = flatmate_exactness(p, 2)
        assert [r.degree for r in records] == [0, 1, 2]
        assert all(r.exact for r in records)


def test_hull_problem_validation():
    p = ProductComplex(path_tree(3), path_tree(3))
    with pytest.raises(ValueError, match="degree"):
        hull_problem(p, 2, AltChain.basis((0, 1)))
    with pytest.raises(ValueError, match="zero"):
        hull_problem(p, 1, AltChain.zero(1))


def test_hull_problem_matches_global_minimum():
    # the hull restriction must not change the minimal filling norm,
    # including over a factor whose hulls are genuine tripods; window
    # cycles have path hulls, so sums of two of them reach the tripod
    cases = [
        ProductComplex(path_tree(3), path_tree(4)),
        ProductComplex(TRIPOD, path_tree(3)),
    ]
    filtered = 0
    for idx, p in enumerate(cases):
        rng = random.Random(f"hull-check:{idx}")
        global_problem = flatmate_boundary_problem(p, 1)
        samples = sample_window_cycles(p, 1, 8, rng)
        for z, witness in samples:
            local = min_l1_preimage(hull_problem(p, 1, z), z, warm_columns=witness)
            whole = min_l1_preimage(global_problem, z, warm_columns=witness)
            assert local.ok and whole.ok
            assert local.norm == whole.norm
        for (a, _), (b, _) in combinations(samples, 2):
            z = a + b
            if z.is_zero():
                continue
            problem = hull_problem(p, 1, z)
            window = {v for row in problem.rows for v in row}
            filtered += len(problem.columns) < math.comb(len(window), 3)
            local = min_l1_preimage(problem, z)
            whole = min_l1_preimage(global_problem, z)
            assert local.ok and whole.ok
            assert local.norm == whole.norm
    assert filtered > 0


def test_hull_problem_window_is_small():
    p = ProductComplex(path_tree(9), path_tree(9))
    z = AltChain.from_tuples(
        [(t, c) for t, c in zip(combinations((p.encode(0, 0), p.encode(0, 1), p.encode(1, 0)), 2), (1, -1, 1))]
    )
    problem = hull_problem(p, 1, z)
    # hulls are the 2x2 corner, far below the 81-vertex instance
    assert set(r for row in problem.rows for r in row) <= {
        p.encode(a, b) for a in (0, 1) for b in (0, 1)
    }


def test_sample_window_cycles_properties():
    p = ProductComplex(TRIPOD, path_tree(4))
    rng = random.Random(11)
    for z, witness in sample_window_cycles(p, 1, 12, rng):
        assert z.l1_norm() == 1
        assert z.boundary().is_zero()
        assert all(is_flatmate(p, key) for key in z.terms)
        assert all(is_flatmate(p, col) for col in witness)


def test_one_vertex_first_factor_fails_before_any_draw():
    # a window takes at least two vertices of the first factor
    p = ProductComplex(path_tree(1), path_tree(5))
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="no window"):
        sample_window_cycles(p, 1, 3, rng)
    assert rng.getstate() == state
    with pytest.raises(ValueError, match="no window"):
        homotopy_norm_probe([p], 1, 3, "s")
    # the factors the other way round still sample
    assert len(sample_window_cycles(ProductComplex(path_tree(5), path_tree(1)), 1, 3, rng)) == 3


def test_probe_smoke_and_determinism():
    family = path_product_family(2, 3)
    reports = homotopy_norm_probe(family, 1, 6, "probe-test")
    assert len(reports) == 2
    for rep in reports:
        assert rep.exact_flags == (True, True)
        assert rep.cycles_tested == 6
        assert rep.max_min_preimage_norm is not None
        assert 0 < rep.max_min_preimage_norm <= 1
        rec = rep.to_record()
        assert rec["exact_flags"] == "11"
        assert rec["factor1_size"] == rec["factor2_size"]
    again = homotopy_norm_probe(family, 1, 6, "probe-test")
    assert [r.to_record() for r in again] == [r.to_record() for r in reports]


def test_probe_rejects_degree_zero():
    with pytest.raises(ValueError):
        homotopy_norm_probe(path_product_family(2, 2), 0, 1, "x")


def fake_report(norm: Fraction | None) -> HomotopyNormReport:
    return HomotopyNormReport((2, 2), 1, 1, norm, (True, True), "s")


def test_flag_growth():
    reports = [
        fake_report(Fraction(1, 2)),
        fake_report(Fraction(3)),       # jumps by 6x
        fake_report(None),              # inexact: never flags
        fake_report(Fraction(100)),     # previous missing: skipped
        fake_report(Fraction(0)),
        fake_report(Fraction(1)),       # zero previous: skipped
    ]
    assert flag_growth(reports, Fraction(4)) == [1]
    assert flag_growth(reports, 100) == []
    assert flag_growth([], 4) == []


def test_path_product_family_validation():
    family = path_product_family(2, 4)
    assert [p.factor1.vertex_count for p in family] == [2, 3, 4]
    with pytest.raises(ValueError):
        path_product_family(0, 3)
    with pytest.raises(ValueError):
        path_product_family(3, 2)
