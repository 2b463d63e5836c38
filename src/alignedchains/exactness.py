"""Exactness checks for alternating chain complexes, certified over Q.

The resolution being verified is

    0 <- Z <- C_0 <- C_1 <- ...   (augmentation, then boundaries)

possibly restricted to a subcomplex (a face-closed family of canonical
tuples).  Exactness at degree n is the dimension count
rank(boundary from degree n+1) == dim ker(boundary out of degree n),
which suffices because boundary-of-boundary is zero on any face-closed
family.

A discrete Morse matching certifies exactness first.  Vertex by vertex,
each free tuple holding v is paired with its face without v; a sequence
of such element matchings is acyclic (Jonsson, "Simplicial Complexes of
Graphs", 2008, ch. 4), and with face coefficients of +-1 discrete Morse
theory holds over Z (Forman, "Morse theory for cell complexes", 1998).
So when no cell below the top level is left unpaired, every degree is
exact and the ranks are pair counts, with no elimination.

Otherwise ranks come from sparse, fraction-free column-echelon
elimination on integer columns (in the spirit of Bareiss, 1968).  Every
reduction step is an integer combination with a nonzero multiplier on
the reduced column, and every division is an exact gcd cancellation, so
the rank it counts is the rational rank, in one pass per degree.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain, combinations, islice, repeat
from typing import Iterable, Iterator

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


def verify_exactness(
    bases: Iterable[Iterable[tuple[int, ...]]],
    n_max: int,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> list[DegreeExactness]:
    """Check exactness of the (sub)complex at degrees 0..n_max.

    `bases` yields the bases of the chain groups level by level, the
    tuples with 1 entry first, for instance as a generator that grows each
    level from the one before.  Only the first n_max + 2 levels are read,
    each up to dim_cap + 1 tuples in any order, all before any elimination,
    so a cap stops the check before a lazy level is drawn in full.  The
    levels must hold canonical tuples of a face-closed family, each tuple
    once, which is validated on every tuple of every level before the
    check starts.

    The element matching decides first; elimination runs only when it
    leaves a critical cell of at most n_max + 1 entries, the empty one too.
    Only the vertex level is sorted, since it alone fixes the matching's
    vertex order; every other level keeps the order `bases` gave it, which
    moves neither the pair counts nor a rank.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")

    levels: list[list[tuple[int, ...]]] = []
    for size, level in zip(range(1, n_max + 3), bases):
        b = list(islice(level, dim_cap + 1))
        if len(b) > dim_cap:
            raise CapExceeded(f"basis tuples of size {size} passed the cap {dim_cap}")
        levels.append(b)
    if len(levels) < n_max + 2:
        raise ValueError(f"bases gave {len(levels)} levels, {n_max + 2} needed")
    levels[0].sort()

    free = [set(b) for b in levels]
    for size, (rows, b) in enumerate(zip(free, levels), 1):
        if len(rows) < len(b):
            tup = next(tup for tup, seen in Counter(b).items() if seen > 1)
            raise ValueError(f"bases list {tup} twice in the level of size {size}")
    for k in range(1, n_max + 2):
        _check_faces(free[k - 1], levels[k], k)
    # matched[s] counts the pairs whose larger cell has s entries
    matched = [0] * (n_max + 3)
    for _, tup in _element_matching(levels, free):
        matched[len(tup)] += 1
    # the augmentation cell is matched and no cell below the top is critical
    certified = matched[1] == 1 and not any(free[:-1])

    results: list[DegreeExactness] = []
    kernel_dim = max(len(levels[0]) - 1, 0)  # kernel of the augmentation
    for n in range(n_max + 1):
        if certified:
            image_rank = matched[n + 2]
        else:
            rows = {tup: i for i, tup in enumerate(levels[n])}
            columns = (
                {rows[face]: sign for face, sign in signed_faces(tup)}
                for tup in levels[n + 1]
            )
            # The target is a proven upper bound (boundary of boundary is
            # zero on a face-closed family), so hitting it early still
            # reports the true rank.
            image_rank = rank_of_columns(columns, target=kernel_dim)
        results.append(
            DegreeExactness(
                degree=n,
                dim=len(levels[n]),
                image_rank=image_rank,
                kernel_dim=kernel_dim,
                exact=image_rank == kernel_dim,
            )
        )
        kernel_dim = len(levels[n + 1]) - image_rank
    return results


def _check_faces(rows: set, tuples: list[tuple[int, ...]], k: int) -> None:
    """Raise unless every k-entry face of every tuple is in `rows`."""
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
        f"bases are not closed under faces: {face} missing (face of {tup})"
    )


def _element_matching(
    levels: list[list[tuple[int, ...]]], free: list[set]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield the pairs (t - v, t) of the element matching on `levels`.

    The lowest vertex takes the empty (augmentation) cell; then each vertex
    v in ascending order pairs every free tuple t holding v with t - v when
    that is free too.  Only `levels[0]` is read, and it must be sorted.
    `free[k]` starts as the set of `levels[k]` and is consumed: what it
    holds at the end is critical.  A level pair whose lower level has no
    free tuple left can form no pair, so it is skipped without a scan.
    """
    if not levels[0]:
        return
    free[0].remove(levels[0][0])
    yield (), levels[0][0]
    for (v,) in levels[0]:
        if not any(free[:-1]):
            return
        for low, high in zip(free, free[1:]):
            if not low:
                continue
            for tup in [t for t in high if v in t]:
                i = tup.index(v)
                face = tup[:i] + tup[i + 1 :]
                if face in low:
                    low.remove(face)
                    high.remove(tup)
                    yield face, tup


def full_exactness(
    point_count: int, n_max: int, *, dim_cap: int = DEFAULT_DIM_CAP
) -> list[DegreeExactness]:
    """Exactness of the full complex on a plain finite vertex set."""
    return verify_exactness(
        (combinations(range(point_count), k) for k in range(1, n_max + 3)),
        n_max,
        dim_cap=dim_cap,
    )


def aligned_exactness(
    t: Tree, n_max: int, *, dim_cap: int = DEFAULT_DIM_CAP
) -> list[DegreeExactness]:
    """Exactness of the subcomplex of aligned tuples of a tree."""
    return verify_exactness(
        ((tup for tup, _ in aligned_spines(t, size)) for size in range(1, n_max + 3)),
        n_max,
        dim_cap=dim_cap,
    )
