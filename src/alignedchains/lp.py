"""Exact l1-minimal boundary preimages via rational simplex.

Filling a cycle z with a chain b of one degree higher is the linear
program  min |b|_1  subject to  (boundary) b = z.  It is solved in exact
rational arithmetic by column generation.  Each free coefficient is split
as p - q with p, q >= 0, but only p's tableau column is stored: q's is its
negation in every basis.  One two-phase tableau simplex lives across all
rounds of a solve.  Pricing appends columns, and the rows their new faces
need, to the kept basis; phase 1 resumes after Farkas pricing and phase 2
from the last optimum.  A solve only finishes when a full pricing sweep
over every admissible column certifies dual feasibility, so the reported
optimum carries an exact strong-duality certificate, and an infeasible
result a Farkas vector.

Each solve indexes the columns by their faces once, checking there that
every face is a row.  Pricing reads the cofaces of the dual's support from
that index, in integers: the duals stay scaled by the tableau's common
scale, and `Fraction`s are built once, for the result's chain and dual.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .chains import AltChain, signed_faces
from .limits import DEFAULT_LP_BASIS_CAP, CapExceeded

@dataclass(frozen=True)
class BoundaryProblem:
    """Boundary data of one degree of a (sub)complex.

    `rows` are the canonical degree-`degree` tuples, `columns` the
    canonical tuples one degree up that fillings may use.  Both must be
    sorted; the column family must be face-closed into the rows.
    """

    degree: int
    rows: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]


@dataclass
class PreimageResult:
    """Outcome of a minimal-filling solve."""

    status: str  # "optimal" or "infeasible"
    chain: AltChain | None
    norm: Fraction | None
    dual: dict[tuple[int, ...], Fraction] | None
    rounds: int

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


_ART = 1 << 62  # id of row 0's artificial; row i's is _ART + i


def _combine(row: list[int], prow: list[int], a: int, factor: int, d: int) -> list[int]:
    """One fraction-free elimination step: (a*row - factor*prow) / d."""
    if factor:
        return [(a * x - factor * y) // d for x, y in zip(row, prow)]
    if a != d:
        return [a * x // d for x in row]
    return row


class _Simplex:
    """Two-phase tableau simplex whose basis is kept across rounds.

    The tableau is kept integer at a common scale D (the last pivot value,
    possibly negative): it stores D * B^-1 [S A | I | S b], where S signs
    each row so that its right-hand side is nonnegative.  The one-step
    update (a*T[i][j] - T[i][c]*T[p][j]) / D_old divides exactly because
    the entries are minors of the integer input.  True signs are stored
    signs times sign(D).  Pivot selection is Dantzig's rule until a long
    degenerate streak, then Bland's rule for guaranteed termination.

    Free column j is the split pair p - q with ids 2j and 2j + 1.  Only
    p's column is stored; q's is its negation in every basis, so q's
    reduced cost is 2*c*D minus p's, and a pivot on q negates p's column.
    Row i's artificial has id _ART + i, above every split id.  It starts
    basic in row i and never re-enters once it leaves, and its cells hold
    the block D * B^-1.  So an appended column is that block times the
    row-signed column, and the cost row's artificial cells give the duals.

    Rows only grow.  An appended row is a face that no existing column
    touches, so it is zero on the old columns and enters with its own
    artificial basic.  Phase 1 minimises the artificial sum; once that is
    zero, phase 2 minimises the l1 norm for good.  Redundant rows are
    kept with their artificial basic at zero.  Before each phase 2 a
    degenerate pivot moves such an artificial out of every row that a
    column now touches, so that no column can raise it above zero.
    """

    _BLAND_AFTER = 40  # consecutive degenerate pivots before switching

    def __init__(self) -> None:
        self.n = 0  # free columns
        self.rows: list[list[int]] = []  # [p columns | artificials | rhs]
        self.cost = [0]
        self.row_sign: list[int] = []
        self.basis: list[int] = []
        self.scale = 1
        self.phase = 1

    def add_rows(self, rhs: Sequence[int]) -> None:
        """Append rows that are zero on every existing column.

        A nonzero right-hand side is only allowed during phase 1.
        """
        d = self.scale
        end = self.n + len(self.rows)
        zeros = [0] * len(rhs)
        for row in self.rows:
            row[end:end] = zeros
        self.cost[end:end] = zeros
        for t, value in enumerate(rhs):
            sign = -1 if value < 0 else 1
            row = [0] * (end + len(rhs) + 1)
            row[end + t] = d
            row[-1] = d * sign * value
            self.cost[-1] -= row[-1]
            self.basis.append(_ART + len(self.rows))
            self.rows.append(row)
            self.row_sign.append(sign)

    def add_columns(self, vectors: Sequence[dict[int, int]]) -> None:
        """Append free columns, each given as {row: coefficient}."""
        n, d = self.n, self.scale
        signed = [
            [(n + k, self.row_sign[k] * v) for k, v in vec.items()] for vec in vectors
        ]
        for row in self.rows:
            row[n:n] = [sum(row[k] * v for k, v in col) for col in signed]
        # the cost cell is D*c - (D*y).column, and D*y_k = D*c_art - cost[k]
        c_struct, c_art = (0, 1) if self.phase == 1 else (1, 0)
        cost = self.cost
        cost[n:n] = [
            d * c_struct - sum((d * c_art - cost[k]) * v for k, v in col)
            for col in signed
        ]
        self.n += len(vectors)

    def _reduced(self, var: int) -> int:
        """Stored reduced cost of the split variable `var`."""
        r = self.cost[var >> 1]
        if var & 1:
            return (2 * self.scale if self.phase == 2 else 0) - r
        return r

    def _pivot(self, row: int, var: int) -> None:
        j = var >> 1
        sign = -1 if var & 1 else 1
        rows = self.rows
        prow = rows[row]
        a = sign * prow[j]
        d = self.scale
        for i, ri in enumerate(rows):
            if i != row:
                rows[i] = _combine(ri, prow, a, sign * ri[j], d)
        self.cost = _combine(self.cost, prow, a, self._reduced(var), d)
        self.basis[row] = var
        self.scale = a

    def _iterate(self) -> None:
        bland = False
        degenerate_streak = 0
        while True:
            sgn = 1 if self.scale > 0 else -1
            twice = 2 * abs(self.scale) if self.phase == 2 else 0
            cost = self.cost
            enter = -1
            best_cost = 0
            for j in range(self.n):
                rp = sgn * cost[j]
                rq = twice - rp
                if rp < best_cost or rq < best_cost:
                    # rp + rq >= 0, so at most one of them is negative
                    enter, best_cost = (2 * j, rp) if rp < rq else (2 * j + 1, rq)
                    if bland:
                        break
            if enter < 0:
                return
            j = enter >> 1
            col_sgn = -sgn if enter & 1 else sgn
            leave_row = -1
            best_a = best_b = 0
            for i, row in enumerate(self.rows):
                a = col_sgn * row[j]
                if a > 0:
                    # ratio b / a against best_b / best_a, both denominators > 0
                    b = sgn * row[-1]
                    lhs, rhs = b * best_a, best_b * a
                    if leave_row < 0 or lhs < rhs or (
                        lhs == rhs and self.basis[i] < self.basis[leave_row]
                    ):
                        leave_row, best_a, best_b = i, a, b
            if leave_row < 0:
                raise ArithmeticError("unbounded linear program")
            if best_b == 0:
                degenerate_streak += 1
                if degenerate_streak > self._BLAND_AFTER:
                    bland = True
            else:
                degenerate_streak = 0
            self._pivot(leave_row, enter)

    def _duals(self) -> list[int]:
        """|D| times the dual of each original row, read off the artificial cells."""
        c_art = 1 if self.phase == 1 else 0
        n, d = self.n, self.scale
        sgn = 1 if d > 0 else -1
        return [
            sign * sgn * (c_art * d - self.cost[n + k])
            for k, sign in enumerate(self.row_sign)
        ]

    def solve(self) -> bool:
        """Resume from the kept basis; return whether the rows are feasible.

        False means the phase-1 residual is positive: the equalities are
        unsatisfiable with the current columns, and `_duals` is then the
        phase-1 (Farkas) vector certifying that fact instead of optimality.
        """
        if self.phase == 1:
            self._iterate()
            if self.cost[-1]:
                return False
            self.phase = 2
            d = self.scale
            cost = [d] * self.n + [0] * (len(self.rows) + 1)
            for var, row in zip(self.basis, self.rows):
                if var < _ART:
                    cost = [c - x for c, x in zip(cost, row)]
            self.cost = cost
        # a zero artificial leaves every row that some column now touches
        for i, var in enumerate(self.basis):
            if var >= _ART:
                row = self.rows[i]
                j = next((j for j in range(self.n) if row[j]), -1)
                if j >= 0:
                    self._pivot(i, 2 * j)
        self._iterate()
        return True

    def solution(self) -> dict[int, Fraction]:
        """Value of each basic split variable, by split id."""
        return {
            var: Fraction(row[-1], self.scale)
            for var, row in zip(self.basis, self.rows)
            if var < _ART
        }


def _price_support(
    dual: dict[tuple[int, ...], int],
    cofaces: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]],
    active_set: set[tuple[int, ...]],
) -> list[tuple[int, tuple[int, ...]]]:
    """|dual . boundary(col)| over every inactive column that can be nonzero.

    A column prices to zero unless one of its faces carries dual weight, so
    only the cofaces of the dual's support are summed; every other column
    satisfies the dual constraints (and the Farkas annihilation) trivially.
    The duals are the scaled integers of `_Simplex._duals`, and so are the
    prices.
    """
    prices: dict[tuple[int, ...], int] = defaultdict(int)
    for face, y in dual.items():
        for col, sign in cofaces.get(face, ()):
            if col not in active_set:
                prices[col] += sign * y
    return [(abs(value), col) for col, value in prices.items() if value]


_MAX_ROUNDS = 400
_BATCH = 50  # most priced columns one round adds


def min_l1_preimage(
    problem: BoundaryProblem,
    z: AltChain,
    *,
    warm_columns: Iterable[tuple[int, ...]] | None = None,
    lp_basis_cap: int = DEFAULT_LP_BASIS_CAP,
) -> PreimageResult:
    """Exact minimal-l1 filling of the cycle z by one-degree-up chains.

    z must be a cycle supported on the problem rows.  The result is either
    an optimal filling with a globally certified dual, or the distinct
    infeasible outcome when z is not a boundary of the column family.
    Every face of every column must be a row; a column that breaks this
    raises `ValueError` before any pivot, whether or not it is ever priced.

    `warm_columns` seeds the restricted problem (columns outside the
    family are ignored); pricing still certifies against every column, so
    the seed affects speed only.  The default seed is every column whose
    vertices lie in the support of z.
    """
    if z.degree != problem.degree:
        raise ValueError(f"z has degree {z.degree}, problem expects {problem.degree}")
    row_set = set(problem.rows)
    if not set(z.terms) <= row_set:
        raise ValueError("z is supported outside the problem rows")
    if z.degree >= 1:
        if not z.boundary().is_zero():
            raise ValueError("z is not a cycle")
    elif z.augmentation() != 0:
        raise ValueError("z has nonzero augmentation")
    if z.is_zero():
        zero = AltChain.zero(z.degree + 1)
        return PreimageResult("optimal", zero, Fraction(0), {}, 0)

    scale = math.lcm(*(coeff.denominator for coeff in z.terms.values()))
    z_int = {key: int(coeff * scale) for key, coeff in z.terms.items()}

    cofaces: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for col in problem.columns:
        for face, sign in signed_faces(col):
            if face not in row_set:
                raise ValueError(
                    f"column {col} has face {face} outside the row family"
                )
            cofaces.setdefault(face, []).append((col, sign))
    if warm_columns is not None:
        active_set = set(warm_columns).intersection(problem.columns)
    else:
        support_vertices = set()
        for key in z_int:
            support_vertices.update(key)
        active_set = {
            col for col in problem.columns if set(col) <= support_vertices
        }

    simplex = _Simplex()
    rows: dict[tuple[int, ...], int] = {}  # face -> simplex row, in order
    active: list[tuple[int, ...]] = []  # simplex column order
    new_columns = sorted(active_set)
    touched: set[tuple[int, ...]] = set(z_int)
    rounds = 0
    while True:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise ArithmeticError("column generation failed to converge")
        for col in new_columns:
            touched.update(face for face, _ in signed_faces(col))
        if len(touched) > lp_basis_cap:
            raise CapExceeded(
                f"restricted LP needs {len(touched)} rows (cap {lp_basis_cap})"
            )
        new_rows = sorted(touched.difference(rows))
        for face in new_rows:
            rows[face] = len(rows)
        simplex.add_rows([z_int.get(face, 0) for face in new_rows])
        simplex.add_columns(
            [
                {rows[face]: sign for face, sign in signed_faces(col)}
                for col in new_columns
            ]
        )
        active.extend(new_columns)
        feasible = simplex.solve()
        dual = {face: y for face, y in zip(rows, simplex._duals()) if y}
        d = abs(simplex.scale)

        # prices carry the scale d: a column improves phase 2 past d, and any
        # column the Farkas vector does not annihilate can reduce the residual
        floor = d if feasible else 0
        priced = _price_support(dual, cofaces, active_set)
        priced = [pair for pair in priced if pair[0] > floor]
        if not priced:
            break
        priced.sort(key=lambda pair: (-pair[0], pair[1]))
        new_columns = sorted(col for _, col in priced[:_BATCH])
        active_set.update(new_columns)

    dual_q = {face: Fraction(y, d) for face, y in dual.items()}
    if not feasible:
        return PreimageResult("infeasible", None, None, dual_q, rounds)
    coeffs = {
        active[var >> 1]: (-value if var & 1 else value) / scale
        for var, value in simplex.solution().items()
        if value
    }
    chain = AltChain(problem.degree + 1, coeffs)
    if chain.boundary() != z:
        raise AssertionError("simplex returned a non-filling")
    norm = chain.l1_norm()
    if sum(dual.get(k, 0) * v for k, v in z_int.items()) != norm * scale * d:
        raise AssertionError("strong duality failed on exact data")
    return PreimageResult("optimal", chain, norm, dual_q, rounds)
