"""Exactness checks for alternating chain complexes, certified over Q.

The resolution being verified is

    0 <- Z <- C_0 <- C_1 <- ...   (augmentation, then boundaries)

possibly restricted to a subcomplex (a face-closed family of canonical
tuples).  Exactness at degree n is the dimension count
rank(boundary from degree n+1) == dim ker(boundary out of degree n),
which suffices because boundary-of-boundary is zero on any face-closed
family.

Ranks come from sparse column-echelon elimination over GF(p) for the
fixed prime `PRIME`.  Reducing mod p can only lower a rank, and
boundary-of-boundary zero bounds the rational rank by the kernel
dimension, so rank_p <= rank_Q <= kernel_dim: whenever the mod-p rank
reaches the kernel dimension it is the rational rank, and the verdict is
certified over Q.  Only a shortfall (rank_p < kernel_dim, from an inexact
complex or an unlucky prime) redoes that degree by elimination over
Fractions, whose rank keeps the next degree's kernel dimension exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .limits import DEFAULT_DIM_CAP, CapExceeded
from .trees import Tree, aligned_tuples

# The modulus of the first elimination pass; None means eliminate over Q.
PRIME: int | None = 2**31 - 1


class ColumnEchelon:
    """Incremental column echelon form over Q, or over GF(modulus).

    Rows are integers; inserted columns are sparse {row: value} dicts,
    with integer values when a modulus is set.  Each stored pivot column
    is normalized (pivot value 1) and has its maximum row at the pivot,
    which keeps reduction loops finite.
    """

    def __init__(self, modulus: int | None = None) -> None:
        self.modulus = modulus
        self.pivots: dict[int, dict[int, Fraction | int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, column: dict[int, Fraction | int]) -> bool:
        """Reduce a column; record a new pivot unless it vanishes."""
        p = self.modulus
        if p is not None:
            return self._insert_mod(column, p)
        col = {r: Fraction(v) for r, v in column.items() if v}
        while col:
            r = max(col)
            pivot = self.pivots.get(r)
            if pivot is None:
                factor = col[r]
                self.pivots[r] = {row: val / factor for row, val in col.items()}
                return True
            factor = col.pop(r)
            for row, val in pivot.items():
                if row == r:
                    continue
                value = col.get(row, Fraction(0)) - factor * val
                if value:
                    col[row] = value
                else:
                    col.pop(row, None)
        return False

    def _insert_mod(self, column: dict[int, int], p: int) -> bool:
        """`insert` over GF(p): the same reduction on residues."""
        col = {r: v % p for r, v in column.items() if v % p}
        pivots = self.pivots
        while col:
            r = max(col)
            pivot = pivots.get(r)
            if pivot is None:
                inverse = pow(col[r], -1, p)
                pivots[r] = {row: val * inverse % p for row, val in col.items()}
                return True
            factor = col.pop(r)
            for row, val in pivot.items():
                if row == r:
                    continue
                value = (col.get(row, 0) - factor * val) % p
                if value:
                    col[row] = value
                else:
                    col.pop(row, None)
        return False


def rank_of_columns(
    columns: Iterable[dict[int, Fraction | int]],
    target: int | None = None,
    modulus: int | None = None,
) -> int:
    """Rank of a sparse column family, stopping early at `target`.

    The rank is over Q, or over GF(modulus) for integer columns.  Early
    stopping is only sound when `target` is a proven upper bound for the
    rank (for boundary matrices: the kernel dimension one degree down).
    """
    ech = ColumnEchelon(modulus)
    for col in columns:
        ech.insert(col)
        if target is not None and ech.rank >= target:
            break
    return ech.rank


@dataclass(frozen=True)
class DegreeExactness:
    """Dimension bookkeeping for one degree of the resolution."""

    degree: int
    dim: int
    image_rank: int
    kernel_dim: int
    exact: bool

    def to_record(self) -> dict:
        return {
            "degree": self.degree,
            "dim": self.dim,
            "image_rank": self.image_rank,
            "kernel_dim": self.kernel_dim,
            "exact": self.exact,
        }


def _default_basis(
    vertices: Sequence[int],
    membership: Callable[[tuple[int, ...]], bool] | None,
    dim_cap: int,
) -> Callable[[int], list[tuple[int, ...]]]:
    ids = sorted(vertices)

    def basis(size: int) -> list[tuple[int, ...]]:
        raw = math.comb(len(ids), size)
        if raw > dim_cap:
            raise CapExceeded(
                f"{raw} candidate tuples of size {size} exceed the cap {dim_cap}"
            )
        combos = combinations(ids, size)
        if membership is None:
            return list(combos)
        return [tup for tup in combos if membership(tup)]

    return basis


def verify_exactness(
    vertices: Sequence[int],
    n_max: int,
    membership: Callable[[tuple[int, ...]], bool] | None = None,
    *,
    basis_enumerator: Callable[[int], list[tuple[int, ...]]] | None = None,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[DegreeExactness]:
    """Check exactness of the (sub)complex at degrees 0..n_max.

    `basis_enumerator(size)` may replace the default enumeration (all
    size-subsets of `vertices` filtered by `membership`); it must yield
    canonical tuples of a face-closed family, which is validated on every
    tuple of every basis before any record is returned.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if not len(vertices) and basis_enumerator is None:
        raise ValueError("empty vertex set")
    basis = basis_enumerator or _default_basis(vertices, membership, dim_cap)

    bases: list[list[tuple[int, ...]]] = []
    for size in range(1, n_max + 3):
        b = sorted(basis(size))
        if len(b) > dim_cap:
            raise CapExceeded(f"{len(b)} basis tuples at size {size} exceed cap {dim_cap}")
        bases.append(b)

    row_indices = [{tup: i for i, tup in enumerate(b)} for b in bases[:-1]]

    def check_faces(k: int, tuples: Iterable[tuple[int, ...]]) -> None:
        """Raise unless every face of every tuple is a row of degree k-1."""
        rows = row_indices[k - 1]
        tuples = list(tuples)
        faces = chain.from_iterable(map(combinations, tuples, repeat(k)))
        if all(map(rows.__contains__, faces)):
            return
        tup, face = next(
            (tup, face)
            for tup in tuples
            for face in combinations(tup, k)
            if face not in rows
        )
        raise ValueError(
            f"membership is not closed under faces: {face} missing (face of {tup})"
        )

    def boundary_columns(
        k: int, tuples: Iterable[tuple[int, ...]]
    ) -> Iterator[dict[int, int]]:
        """Columns of the boundary from degree k to degree k-1."""
        rows = row_indices[k - 1]
        # combinations(tup, k) drops the last entry first, the first last.
        signs = [-1 if j % 2 else 1 for j in range(k, -1, -1)]
        for tup in tuples:
            try:
                col = dict(zip(map(rows.__getitem__, combinations(tup, k)), signs))
            except KeyError:
                check_faces(k, [tup])  # raises, naming the missing face
                raise
            yield col

    results: list[DegreeExactness] = []
    kernel_dim = max(len(bases[0]) - 1, 0)  # kernel of the augmentation
    for n in range(n_max + 1):
        dim_n = len(bases[n])
        # The target is a proven upper bound (boundary of boundary is
        # zero), so hitting it early still reports the true rank, and a
        # mod-p rank that hits it is the rational rank.
        tuples = iter(bases[n + 1])
        image_rank = rank_of_columns(
            boundary_columns(n + 1, tuples), target=kernel_dim, modulus=PRIME
        )
        # That bound needs a face-closed family, so the tuples the early
        # stop left unread are checked too.
        check_faces(n + 1, tuples)
        if PRIME is not None and image_rank < kernel_dim:
            image_rank = rank_of_columns(
                boundary_columns(n + 1, bases[n + 1]), target=kernel_dim
            )
        results.append(
            DegreeExactness(
                degree=n,
                dim=dim_n,
                image_rank=image_rank,
                kernel_dim=kernel_dim,
                exact=image_rank == kernel_dim,
            )
        )
        kernel_dim = len(bases[n + 1]) - image_rank
    return results


def full_exactness(
    point_count: int, n_max: int, *, dim_cap: int = DEFAULT_DIM_CAP
) -> list[DegreeExactness]:
    """Exactness of the full complex on a plain finite vertex set."""
    return verify_exactness(range(point_count), n_max, dim_cap=dim_cap)


def aligned_exactness(
    t: Tree, n_max: int, *, dim_cap: int = DEFAULT_DIM_CAP
) -> list[DegreeExactness]:
    """Exactness of the subcomplex of aligned tuples of a tree."""
    return verify_exactness(
        list(t.vertices()),
        n_max,
        basis_enumerator=lambda size: aligned_tuples(t, size),
        dim_cap=dim_cap,
    )
