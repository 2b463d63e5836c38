import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from alignedchains.chains import AltChain, signed_faces
from alignedchains.flatmate import (
    ProductComplex,
    aligned_boundary_problem,
    hull_problem,
    sample_window_cycles,
)
from alignedchains.limits import CapExceeded
from alignedchains.lp import BoundaryProblem, min_l1_preimage
from alignedchains.trees import build_tree, path_tree, regular_ball


def full_problem(points: int, degree: int) -> BoundaryProblem:
    ids = range(points)
    return BoundaryProblem(
        degree,
        tuple(combinations(ids, degree + 1)),
        tuple(combinations(ids, degree + 2)),
    )


def tripod_hull_cases() -> list[tuple[BoundaryProblem, AltChain]]:
    """Hull problems on regular_ball(3, 1) x path(3).

    Window cycles have path hulls, where the flatmate filter keeps every
    tuple; sums of two of them can span the whole tripod, where it does not.
    """
    p = ProductComplex(regular_ball(3, 1), path_tree(3))
    rng = random.Random("hull-resume")
    cycles = [z for z, _ in sample_window_cycles(p, 1, 5, rng)]
    cycles += [a + b for a, b in combinations(cycles, 2)]
    return [(hull_problem(p, 1, z), z) for z in cycles if not z.is_zero()]


def test_faces_of_signs():
    faces = list(signed_faces((0, 1, 2)))
    assert faces == [((0, 1), 1), ((0, 2), -1), ((1, 2), 1)]


def test_rejects_non_cycles_and_bad_support():
    problem = full_problem(4, 1)
    not_cycle = AltChain.basis((0, 1))
    with pytest.raises(ValueError, match="cycle"):
        min_l1_preimage(problem, not_cycle)
    wrong_degree = AltChain.basis((0, 1, 2))
    with pytest.raises(ValueError, match="degree"):
        min_l1_preimage(problem, wrong_degree)
    outside = AltChain.from_tuples([((0, 7), 1), ((7, 1), 1), ((1, 0), 1)])
    with pytest.raises(ValueError, match="support"):
        min_l1_preimage(full_problem(4, 1), outside)


def test_zero_cycle_trivial():
    result = min_l1_preimage(full_problem(4, 1), AltChain.zero(1))
    assert result.ok
    assert result.norm == 0
    assert result.chain.is_zero()


def test_tripod_unique_fill():
    t = build_tree([(0, 1), (0, 2), (0, 3)])
    problem = aligned_boundary_problem(t, 1)
    z = AltChain.basis((0, 1, 2)).boundary()
    result = min_l1_preimage(problem, z)
    assert result.ok
    assert result.norm == 1
    assert result.chain == AltChain.basis((0, 1, 2))


def test_square_cycle_needs_two_triangles():
    problem = full_problem(4, 1)
    z = AltChain.from_tuples([((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), -1)])
    result = min_l1_preimage(problem, z)
    assert result.ok
    assert result.norm == 2
    assert result.chain.boundary() == z


def test_degree_two_fill_norm_three():
    # fills differ by multiples of the single top boundary; the norm
    # |1+t| + |2-t| + 3|t| over that line bottoms out at t = 0
    problem = full_problem(5, 2)
    b0 = AltChain.from_tuples([((0, 1, 2, 3), 1), ((0, 2, 3, 4), 2)])
    z = b0.boundary()
    result = min_l1_preimage(problem, z)
    assert result.ok
    assert result.norm == 3
    assert result.chain.boundary() == z


def test_rational_coefficients():
    problem = full_problem(4, 1)
    z = AltChain.basis((0, 1, 2)).boundary() * Fraction(2, 7)
    result = min_l1_preimage(problem, z)
    assert result.ok
    assert result.norm == Fraction(2, 7)


def test_infeasible_with_farkas_certificate():
    # only one triangle available; the square cycle cannot be filled
    problem = BoundaryProblem(
        1, tuple(combinations(range(4), 2)), ((0, 1, 2),)
    )
    z = AltChain.from_tuples([((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((0, 3), -1)])
    result = min_l1_preimage(problem, z)
    assert result.status == "infeasible"
    assert not result.ok
    assert result.dual
    # Farkas vector: annihilates every column, pairs nonzero with z
    pairing = sum(result.dual.get(k, Fraction(0)) * v for k, v in z.terms.items())
    assert pairing != 0
    for col in problem.columns:
        col_sum = sum(
            sign * result.dual.get(face, Fraction(0))
            for face, sign in signed_faces(col)
        )
        assert col_sum == 0


def test_column_face_outside_rows_rejected():
    problem = BoundaryProblem(1, ((0, 1), (1, 2)), ((0, 1, 2),))
    z = AltChain.zero(1)
    # zero cycle short-circuits; force validation through a real solve
    bad = AltChain.from_tuples([((0, 1), 1), ((1, 2), -1)])
    with pytest.raises(ValueError):
        min_l1_preimage(problem, bad)
    # the faces of a column that pricing never reaches are checked too
    rows = ((0, 1), (0, 2), (1, 2))
    unpriced = BoundaryProblem(1, rows, ((0, 1, 2), (1, 2, 3)))
    with pytest.raises(ValueError, match="outside the row family"):
        min_l1_preimage(unpriced, AltChain.basis((0, 1, 2)).boundary())


def test_basis_cap():
    problem = full_problem(6, 1)
    z = AltChain.basis((0, 1, 2)).boundary()
    with pytest.raises(CapExceeded):
        min_l1_preimage(problem, z, lp_basis_cap=2)


def test_warm_start_agrees_with_cold():
    problem = full_problem(6, 1)
    rng = random.Random(17)
    for _ in range(10):
        cols = [tuple(sorted(rng.sample(range(6), 3))) for _ in range(3)]
        z = AltChain.from_tuples([(c, rng.choice((-2, -1, 1, 2))) for c in cols]).boundary()
        if z.is_zero():
            continue
        cold = min_l1_preimage(problem, z)
        warm = min_l1_preimage(problem, z, warm_columns=cols)
        assert cold.ok and warm.ok
        assert cold.norm == warm.norm


def test_resumed_rounds_match_default(monkeypatch):
    # warm_columns=[] starts infeasible, so each round resumes phase 1 after
    # Farkas pricing and appends the rows its one new column touches; a
    # batch of 1 from the default seed resumes phase 2 from the last optimum
    cases = tripod_hull_cases()
    defaults = [min_l1_preimage(problem, z) for problem, z in cases]
    monkeypatch.setattr("alignedchains.lp._BATCH", 1)
    filtered = 0
    rounds = []
    for (problem, z), default in zip(cases, defaults):
        vertices = {v for row in problem.rows for v in row}
        filtered += len(problem.columns) < math.comb(len(vertices), 3)
        from_farkas = min_l1_preimage(problem, z, warm_columns=[])
        one_by_one = min_l1_preimage(problem, z)
        assert default.ok and from_farkas.ok and one_by_one.ok
        assert from_farkas.norm == default.norm == one_by_one.norm
        rounds.append(from_farkas.rounds)
    assert filtered > 0
    assert max(rounds) > 1


def test_duals_certify_optimum():
    problem = full_problem(5, 1)
    z = AltChain.from_tuples(
        [((0, 1), 1), ((1, 2), 1), ((2, 3), 1), ((3, 4), 1), ((0, 4), -1)]
    )
    result = min_l1_preimage(problem, z)
    assert result.ok
    # dual pairing equals the norm, and every column constraint is tight or slack
    pairing = sum(result.dual.get(k, Fraction(0)) * v for k, v in z.terms.items())
    assert pairing == result.norm
    for col in problem.columns:
        col_sum = sum(
            sign * result.dual.get(face, Fraction(0))
            for face, sign in signed_faces(col)
        )
        assert abs(col_sum) <= 1


def test_scipy_cross_check():
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import linprog

    problem = full_problem(6, 1)
    cases = []
    rng = random.Random(23)
    for _ in range(12):
        picked = [tuple(sorted(rng.sample(range(6), 3))) for _ in range(3)]
        z = AltChain.from_tuples(
            [(c, rng.choice((-2, -1, 1, 2))) for c in picked]
        ).boundary()
        if z.is_zero():
            continue
        cases.append((problem, z))
    for problem, z in cases + tripod_hull_cases():
        rows = {r: i for i, r in enumerate(problem.rows)}
        cols = list(problem.columns)
        mat = np.zeros((len(rows), 2 * len(cols)))
        for j, col in enumerate(cols):
            for face, sign in signed_faces(col):
                mat[rows[face], 2 * j] = sign
                mat[rows[face], 2 * j + 1] = -sign
        exact = min_l1_preimage(problem, z)
        assert exact.ok
        rhs = np.zeros(len(rows))
        for key, coeff in z.terms.items():
            rhs[rows[key]] = float(coeff)
        approx = linprog(
            np.ones(2 * len(cols)), A_eq=mat, b_eq=rhs, method="highs"
        )
        assert approx.status == 0
        assert abs(approx.fun - float(exact.norm)) < 1e-7
