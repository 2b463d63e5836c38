"""Exactness checks for alternating chain complexes, certified over Q.

The resolution being verified is

    0 <- Z <- C_0 <- C_1 <- ...   (augmentation, then boundaries)

possibly restricted to a subcomplex (a face-closed family of canonical
tuples).  Exactness at degree n is the dimension count
rank(boundary from degree n+1) == dim ker(boundary out of degree n),
which suffices because boundary-of-boundary is zero on any face-closed
family.

Ranks come from sparse, fraction-free column-echelon elimination on
integer columns (in the spirit of Bareiss, 1968).  Every reduction step
is an integer combination with a nonzero multiplier on the reduced
column, and every division is an exact gcd cancellation, so the rank it
counts is the rational rank, in one pass per degree.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain, combinations, count, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence

from .chains import signed_faces
from .limits import DEFAULT_DIM_CAP, CapExceeded
from .trees import Tree, aligned_spines


class ColumnEchelon:
    """Incremental fraction-free column echelon form of integer columns.

    Rows are integers; inserted columns are sparse {row: int} dicts.  A
    column with value c at the row of a pivot with leading value a becomes
    (a/g)*column - (c/g)*pivot, g = gcd(a, c), which clears that row and
    keeps every entry an integer.  Each stored pivot column is divided by
    the gcd of its entries, has a positive leading value, and has its
    maximum row at the pivot, which keeps reduction loops finite.  The
    rank is the rank over Q.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, column: dict[int, int]) -> bool:
        """Reduce a column; record a new pivot unless it vanishes."""
        col = {r: v for r, v in column.items() if v}
        pivots = self.pivots
        while col:
            r = max(col)
            pivot = pivots.get(r)
            if pivot is None:
                g = math.gcd(*col.values())
                if col[r] < 0:
                    g = -g
                pivots[r] = {row: val // g for row, val in col.items()}
                return True
            g = math.gcd(pivot[r], col[r])
            a, c = pivot[r] // g, col[r] // g
            if a != 1:
                col = {row: a * val for row, val in col.items()}
            # the pivot's own row cancels to zero and is dropped here
            for row, val in pivot.items():
                value = col.get(row, 0) - c * val
                if value:
                    col[row] = value
                else:
                    col.pop(row, None)
        return False


def rank_of_columns(columns: Iterable[dict[int, int]], target: int | None = None) -> int:
    """Rational rank of a sparse integer column family, stopping early at
    `target`.

    Early stopping is only sound when `target` is a proven upper bound for
    the rank (for boundary matrices: the kernel dimension one degree down).
    """
    ech = ColumnEchelon()
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
        return asdict(self)


def _default_bases(
    vertices: Sequence[int],
    membership: Callable[[tuple[int, ...]], bool] | None,
    dim_cap: int,
) -> Iterator[list[tuple[int, ...]]]:
    """Levels of the subsets of `vertices` kept by `membership`, by size."""
    ids = sorted(vertices)
    for size in count(1):
        raw = math.comb(len(ids), size)
        if raw > dim_cap:
            raise CapExceeded(
                f"{raw} candidate tuples of size {size} exceed the cap {dim_cap}"
            )
        combos = combinations(ids, size)
        if membership is None:
            yield list(combos)
        else:
            yield [tup for tup in combos if membership(tup)]


def verify_exactness(
    vertices: Sequence[int],
    n_max: int,
    membership: Callable[[tuple[int, ...]], bool] | None = None,
    *,
    bases: Iterable[Iterable[tuple[int, ...]]] | None = None,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[DegreeExactness]:
    """Check exactness of the (sub)complex at degrees 0..n_max.

    The bases of the chain groups are read level by level, the tuples with
    1 entry first, up to n_max + 2 entries.  By default the level of size
    k holds the k-subsets of `vertices` kept by `membership` (all of them
    when None).  Otherwise `bases` yields the levels in order, for
    instance as a generator that grows each level from the one before,
    and `vertices` is not read.  Only the first n_max + 2 levels are read,
    each up to dim_cap + 1 tuples in any order, all before any elimination,
    so a cap stops the check before a lazy level is drawn in full.  The
    levels must hold canonical tuples of a face-closed family, which is
    validated on every tuple of every level before any record is returned.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    if bases is None:
        if not len(vertices):
            raise ValueError("empty vertex set")
        bases = _default_bases(vertices, membership, dim_cap)
    elif membership is not None:
        raise ValueError("give membership or bases, not both")

    levels: list[list[tuple[int, ...]]] = []
    for size, level in zip(range(1, n_max + 3), bases):
        b = sorted(islice(level, dim_cap + 1))
        if len(b) > dim_cap:
            raise CapExceeded(f"basis tuples of size {size} passed the cap {dim_cap}")
        levels.append(b)
    if len(levels) < n_max + 2:
        raise ValueError(f"bases gave {len(levels)} levels, {n_max + 2} needed")

    row_indices = [{tup: i for i, tup in enumerate(b)} for b in levels[:-1]]

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
        for tup in tuples:
            try:
                yield {rows[face]: sign for face, sign in signed_faces(tup)}
            except KeyError:
                check_faces(k, [tup])  # raises, naming the missing face
                raise

    results: list[DegreeExactness] = []
    kernel_dim = max(len(levels[0]) - 1, 0)  # kernel of the augmentation
    for n in range(n_max + 1):
        dim_n = len(levels[n])
        # The target is a proven upper bound (boundary of boundary is
        # zero), so hitting it early still reports the true rank.
        tuples = iter(levels[n + 1])
        image_rank = rank_of_columns(boundary_columns(n + 1, tuples), target=kernel_dim)
        # That bound needs a face-closed family, so the tuples the early
        # stop left unread are checked too.
        check_faces(n + 1, tuples)
        results.append(
            DegreeExactness(
                degree=n,
                dim=dim_n,
                image_rank=image_rank,
                kernel_dim=kernel_dim,
                exact=image_rank == kernel_dim,
            )
        )
        kernel_dim = len(levels[n + 1]) - image_rank
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
        t.vertices(),
        n_max,
        bases=(
            (tup for tup, _ in aligned_spines(t, size)) for size in range(1, n_max + 3)
        ),
        dim_cap=dim_cap,
    )
