"""Projection of arbitrary chains onto aligned chains of a tree.

For a degree-n tuple x the projection is the signed sum, over coordinate
pairs i < j, of the tuple obtained by projecting every coordinate onto the
segment [x_i, x_j].  Degrees 0 and 1 are fixed pointwise.  The map is a
chain map, restricts to the identity on aligned chains, and its value on a
basis tuple collapses to at most four terms that can be rewritten through
the end-pair bracket below.

In a tree the point of [x_i, x_j] nearest x_k is the median of the three,
read off the rooted index (`Tree.rooted`); no distance row is read and no
geodesic is built.  The sampled checks build one LCA matrix per sampled
tuple: each face is projected from its submatrix and each reordering from
the permuted matrix, and the norm scan counts in integers.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from itertools import combinations, starmap
from operator import gt, sub
from typing import Sequence

from .chains import AltChain, Rational, signed_faces
from .trees import Tree


def project_tuple(t: Tree, tup: Sequence[int]) -> AltChain:
    """Projection of a single (possibly unordered) tuple, as a chain.

    On [x_i, x_j] the point nearest x_k is the deepest of the entries'
    pairwise LCAs, read once; a pair whose n + 1 medians repeat projects
    to a tuple with a repeated entry, which is zero, and is skipped.
    """
    return _projection(t, tuple(tup), t.rooted.lca_keys(tup))[0]


def _projection(t: Tree, x: tuple[int, ...], lca: list[list[int]]) -> tuple[AltChain, bool]:
    """`project_tuple`'s chain read off `lca`, the LCA-key matrix of `x`, and
    whether some pair had pairwise distinct medians (the caterpillar case)."""
    n = len(x) - 1
    if n < 0:
        raise ValueError("empty tuple has no degree")
    if n == 0:
        return AltChain.basis(x), False
    size = t.vertex_count
    # Two of lca(x_i, x_k), lca(x_j, x_k) and top = lca(x_i, x_j) agree; the
    # median is the third, so its key is top + |d| for d the first two's
    # difference, whose sign tells x_i's side from x_j's: medians repeat exactly
    # when differences do, and a kept pair's sign is its medians' inversion parity.
    terms: dict[tuple[int, ...], int] = {}
    kept = False
    for i, j in combinations(range(n + 1), 2):
        diffs = list(map(sub, lca[i], lca[j]))
        if len(set(diffs)) <= n:
            continue
        kept = True
        top = lca[i][j]
        points = [(top + abs(d)) % size for d in diffs]
        key = tuple(sorted(points))
        sign = -1 if sum(starmap(gt, combinations(points, 2))) % 2 else 1
        terms[key] = terms.get(key, 0) + sign
    return AltChain(n, {key: c for key, c in terms.items() if c}), kept


def project_to_aligned(t: Tree, chain: AltChain) -> AltChain:
    """Linear extension of the tuple projection to whole chains."""
    if chain.degree <= 1 or chain.is_zero():
        return AltChain(chain.degree, dict(chain.terms))
    out: dict[tuple[int, ...], Rational] = {}
    for key, coeff in chain.terms.items():
        for tup, c in project_tuple(t, key).terms.items():
            value = out.get(tup, 0) + c * coeff
            if value:
                out[tup] = value
            else:
                out.pop(tup, None)
    return AltChain(chain.degree, out)


@dataclass(frozen=True)
class CaterpillarForm:
    """Shape certificate for a tuple whose projections onto one of its
    coordinate segments are pairwise distinct.

    `order[m]` is the original index of the m-th point along the spine,
    read from tup_i; `spine_points[m]` is its projection.
    """

    order: tuple[int, ...]
    spine_points: tuple[int, ...]


def caterpillar_layout(
    t: Tree, tup: Sequence[int], i: int, j: int
) -> CaterpillarForm | None:
    """Detect the caterpillar shape of `tup` over the segment [tup_i, tup_j].

    Returns None unless the projections onto that segment, the medians of
    tup_i, tup_j and each coordinate, are pairwise distinct: exactly when
    `project_tuple` keeps the pair (and tup_i, tup_j are hull leaves).
    A coordinate's key difference d = lca(tup_i, x_k) - lca(tup_j, x_k)
    places its median: on tup_i's side of top = lca(tup_i, tup_j) when
    d > 0, deeper for larger d, and on tup_j's side when d < 0, deeper for
    smaller d.  So the points run from tup_i to tup_j as d falls, and no
    distance is read.
    """
    x = tuple(tup)
    if not (0 <= i < j <= len(x) - 1):
        raise ValueError("need 0 <= i < j within the tuple")
    return _layout(t, x, i, j, t.rooted.lca_keys(x))


def _layout(
    t: Tree, x: tuple[int, ...], i: int, j: int, lca: list[list[int]]
) -> CaterpillarForm | None:
    """`caterpillar_layout` from `lca`, the LCA-key matrix of `x`."""
    diffs = list(map(sub, lca[i], lca[j]))
    if len(set(diffs)) != len(x):
        return None
    top = lca[i][j]
    order = tuple(sorted(range(len(x)), key=diffs.__getitem__, reverse=True))
    spine_points = tuple((top + abs(diffs[k])) % t.vertex_count for k in order)
    return CaterpillarForm(order, spine_points)


def end_pair_bracket_terms(
    u: tuple[int, int], z: Sequence[int], v: tuple[int, int]
) -> list[tuple[tuple[int, ...], int]]:
    """The four ordered terms of the bracket, with their signs.

    The middle tuple may be empty; that degenerate case shows up when a
    face of a longer bracket drops its only middle entry.
    """
    if len(u) != 2 or len(v) != 2:
        raise ValueError("end pairs must have exactly two entries")
    zz = tuple(z)
    return [
        ((u[0],) + zz + (v[0],), -1),
        ((u[0],) + zz + (v[1],), 1),
        ((u[1],) + zz + (v[1],), -1),
        ((u[1],) + zz + (v[0],), 1),
    ]


def end_pair_bracket(
    u: tuple[int, int], z: Sequence[int], v: tuple[int, int]
) -> AltChain:
    """Signed corner sum over the two end pairs around a middle tuple."""
    return AltChain.from_tuples(end_pair_bracket_terms(u, z, v))


def bracket_from_layout(
    tup: Sequence[int], layout: CaterpillarForm
) -> AltChain:
    """Bracket rewrite of a projected tuple, read off a caterpillar form."""
    x = tuple(tup)
    xr = tuple(x[k] for k in layout.order)
    z = layout.spine_points[1:-1]
    return end_pair_bracket((xr[0], xr[1]), z, (xr[-2], xr[-1]))


@dataclass(frozen=True)
class ChainMapReport:
    degree: int
    samples: int
    failures: int
    counterexample: tuple[int, ...] | None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_record(self) -> dict:
        return asdict(self)


def verify_chain_map(t: Tree, degree: int, samples: int, seed: int) -> ChainMapReport:
    """Sample basis tuples and check boundary-compatibility of the projection;
    each tuple's LCA matrix is built once, and each face projected from its submatrix."""
    if degree < 1:
        raise ValueError("chain map check needs degree >= 1")
    if t.vertex_count < degree + 1:
        raise ValueError("tree too small for the requested degree")
    rng = random.Random(seed)
    failures = 0
    counterexample = None
    ids = range(t.vertex_count)
    for _ in range(samples):
        tup = tuple(sorted(rng.sample(ids, degree + 1)))
        # tuples of degree <= 1 are their own projections
        lhs = rhs = dict(signed_faces(tup))
        if degree > 1:
            lca = t.rooted.lca_keys(tup)
            lhs = _projection(t, tup, lca)[0].boundary().terms
        if degree > 2:  # signed_faces drops the last entry first
            out: dict[tuple[int, ...], int] = {}
            for m, (face, sign) in zip(range(degree, -1, -1), signed_faces(tup)):
                sub_lca = [row[:m] + row[m + 1 :] for row in lca[:m] + lca[m + 1 :]]
                for key, c in _projection(t, face, sub_lca)[0].terms.items():
                    out[key] = out.get(key, 0) + sign * c
            rhs = {key: c for key, c in out.items() if c}
        if lhs != rhs:
            failures += 1
            if counterexample is None:
                counterexample = tup
    return ChainMapReport(degree, samples, failures, counterexample)


@dataclass(frozen=True)
class BracketReport:
    cocycle_checks: int
    face_checks: int
    rewrite_checks: int
    failures: int
    counterexample: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_record(self) -> dict:
        return asdict(self)


def verify_bracket_identities(
    t: Tree, samples: int, seed: int, max_degree: int = 5
) -> BracketReport:
    """Random instances of the bracket's splitting, face, and rewrite laws.

    The face law is evaluated on the bracket's ordered representative
    terms, since dropping a single coordinate is only defined there.
    """
    if max_degree < 2:
        raise ValueError("bracket identities need degree >= 2")
    if t.vertex_count < max_degree + 1:
        raise ValueError("tree too small for the requested degree")
    rng = random.Random(seed)
    nverts = t.vertex_count
    cocycle = face = rewrite = failures = 0
    counterexample = None

    def note(kind: str, data: object) -> None:
        nonlocal failures, counterexample
        failures += 1
        if counterexample is None:
            counterexample = f"{kind}: {data!r}"

    for _ in range(samples):
        n = rng.randint(2, max_degree)
        z = tuple(rng.randrange(nverts) for _ in range(n - 1))
        a, b, c = (rng.randrange(nverts) for _ in range(3))
        p, q, r = (rng.randrange(nverts) for _ in range(3))

        lhs = end_pair_bracket((a, b), z, (p, q))
        split_u = end_pair_bracket((a, c), z, (p, q)) + end_pair_bracket((c, b), z, (p, q))
        split_v = end_pair_bracket((a, b), z, (p, r)) + end_pair_bracket((a, b), z, (r, q))
        cocycle += 2
        if lhs != split_u:
            note("split-left", ((a, b, c), z, (p, q)))
        if lhs != split_v:
            note("split-right", ((a, b), z, (p, q, r)))

        terms = end_pair_bracket_terms((a, b), z, (p, q))
        for jj in range(n + 1):
            dropped = AltChain.from_tuples(
                (tt[:jj] + tt[jj + 1 :], sign) for tt, sign in terms
            )
            if jj in (0, n):
                expected = AltChain.zero(n - 1)
            else:
                expected = end_pair_bracket((a, b), z[: jj - 1] + z[jj:], (p, q))
            face += 1
            if dropped != expected:
                note("face", ((a, b), z, (p, q), jj))

        sample = rng.sample(range(nverts), n + 1)
        rng.shuffle(sample)
        x = tuple(sample)
        lca = t.rooted.lca_keys(x)
        for i, j in combinations(range(n + 1), 2):
            layout = _layout(t, x, i, j, lca)
            if layout is None:
                continue
            xr = tuple(x[k] for k in layout.order)
            permuted = [[lca[a][b] for b in layout.order] for a in layout.order]
            rewrite += 1
            if _projection(t, xr, permuted)[0] != bracket_from_layout(x, layout):
                note("rewrite", (x, i, j))
    return BracketReport(cocycle, face, rewrite, failures, counterexample)


@dataclass(frozen=True)
class NormScanReport:
    degree: int
    samples: int
    term_bound: int
    max_norm: int
    bound_violations: int
    standard_count: int
    standard_max_norm: int
    standard_violations: int

    @property
    def passed(self) -> bool:
        return self.bound_violations == 0 and self.standard_violations == 0

    def to_record(self) -> dict:
        return {
            "degree": self.degree,
            "samples": self.samples,
            "term_bound": self.term_bound,
            "max_norm": f"{self.max_norm}/1",
            "bound_violations": self.bound_violations,
            "standard_count": self.standard_count,
            "standard_max_norm": f"{self.standard_max_norm}/1",
            "standard_violations": self.standard_violations,
        }


def projection_norm_scan(t: Tree, degree: int, samples: int, seed: int) -> NormScanReport:
    """Scan l1 norms of projected basis tuples against the a-priori bound.

    The pair-count bound (n+1)(n+2)/2 must hold for every tuple; tuples
    admitting a caterpillar layout for some coordinate pair are checked
    against the sharper bound 4; the projection reports whether it kept a
    pair, which is exactly that case, so no layout is built.
    """
    if t.vertex_count < degree + 1:
        raise ValueError("tree too small for the requested degree")
    rng = random.Random(seed)
    bound = (degree + 1) * (degree + 2) // 2
    max_norm = std_max = 0
    violations = std_violations = std_count = 0
    ids = range(t.vertex_count)
    for _ in range(samples):
        tup = tuple(sorted(rng.sample(ids, degree + 1)))
        chain, caterpillar = _projection(t, tup, t.rooted.lca_keys(tup))
        norm = sum(map(abs, chain.terms.values()))
        max_norm = max(max_norm, norm)
        if norm > bound:
            violations += 1
        if caterpillar:
            std_count += 1
            std_max = max(std_max, norm)
            if norm > 4:
                std_violations += 1
    return NormScanReport(
        degree=degree,
        samples=samples,
        term_bound=bound,
        max_norm=max_norm,
        bound_violations=violations,
        standard_count=std_count,
        standard_max_norm=std_max,
        standard_violations=std_violations,
    )
