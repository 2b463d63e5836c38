import gc
import random
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
    sample_unit_cycles,
    sample_window_cycles,
)
from alignedchains.lp import min_l1_preimage
from alignedchains.trees import aligned_tuples, build_tree, path_tree, regular_ball

TRIPOD = build_tree([(0, 1), (0, 2), (0, 3)])


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
    # including over a factor whose hulls are genuine tripods
    cases = [
        ProductComplex(path_tree(3), path_tree(4)),
        ProductComplex(TRIPOD, path_tree(3)),
    ]
    for idx, p in enumerate(cases):
        rng = random.Random(f"hull-check:{idx}")
        global_problem = flatmate_boundary_problem(p, 1)
        for z, witness in sample_window_cycles(p, 1, 8, rng):
            local = min_l1_preimage(hull_problem(p, 1, z), z, warm_columns=witness)
            whole = min_l1_preimage(global_problem, z, warm_columns=witness)
            assert local.ok and whole.ok
            assert local.norm == whole.norm


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


def test_sample_unit_cycles_properties():
    p = ProductComplex(path_tree(3), path_tree(3))
    problem = flatmate_boundary_problem(p, 1)
    rng = random.Random(5)
    cycles = sample_unit_cycles(problem, 12, rng)
    assert len(cycles) == 12
    col_set = set(problem.columns)
    for z, witness in cycles:
        assert z.l1_norm() == 1
        assert z.boundary().is_zero()
        assert set(witness) <= col_set


def test_sample_window_cycles_properties():
    p = ProductComplex(TRIPOD, path_tree(4))
    rng = random.Random(11)
    for z, witness in sample_window_cycles(p, 1, 12, rng):
        assert z.l1_norm() == 1
        assert z.boundary().is_zero()
        assert all(is_flatmate(p, key) for key in z.terms)
        assert all(is_flatmate(p, col) for col in witness)


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
