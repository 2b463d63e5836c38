"""Flatmate complexes on products of two trees, and norm-constant probes.

A product of two trees carries tuples of product vertices; a tuple is
"flatmate" when each coordinate projection is aligned in its factor, i.e.
the tuple fits inside a product of two geodesic segments.  One enumerator,
`_flatmate_levels`, grows every level of the complex in one pass: each
tuple carries its segment ends in both factors, and a new vertex is
tested against them by the betweenness of tree metrics (Buneman, 1974),
three distance lookups per factor.  The flatmate subcomplex supports the
same exactness checks as the aligned complex, and an LP probe estimates,
instance by instance, the best constant for filling unit cycles by
one-degree-up chains.  The probe emits data only; it never decides
whether those constants stay bounded as instances grow.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Sequence

from .chains import AltChain
from .exactness import DegreeExactness, verify_exactness
from .limits import DEFAULT_DIM_CAP, DEFAULT_LP_BASIS_CAP, CapExceeded
from .lp import BoundaryProblem, min_l1_preimage
from .trees import Tree, aligned_tuples, convex_hull, geodesic, path_tree


@dataclass(frozen=True)
class ProductComplex:
    """Product of two trees; vertices are encoded pairs.

    The product vertex (a, b) gets id a * factor2.vertex_count + b, so a
    trivial second factor reproduces the first factor's ids verbatim.
    """

    factor1: Tree
    factor2: Tree

    @property
    def vertex_count(self) -> int:
        return self.factor1.vertex_count * self.factor2.vertex_count

    def vertices(self) -> range:
        return range(self.vertex_count)

    def encode(self, a: int, b: int) -> int:
        n2 = self.factor2.vertex_count
        if not (0 <= a < self.factor1.vertex_count and 0 <= b < n2):
            raise ValueError(f"({a}, {b}) is not a product vertex")
        return a * n2 + b

    def decode(self, vid: int) -> tuple[int, int]:
        if not 0 <= vid < self.vertex_count:
            raise ValueError(f"{vid} is not a product vertex id")
        return divmod(vid, self.factor2.vertex_count)


def _flatmate_levels(
    p: ProductComplex,
    size: int,
    vertices: Iterable[int] | None = None,
    *,
    dim_cap: int | None = None,
) -> Iterator[list[tuple[int, ...]]]:
    """Canonical flatmate tuples of every size 1..size, one sorted list per
    size, smallest first, all grown in one pass.

    `vertices` keeps only tuples whose entries all lie in that subset of
    product vertex ids.  Flatmate-ness is monotone under subtuples, so a
    level is grown from the one before by appending a later vertex to each
    tuple, in lexicographic order.  While a level grows, each tuple carries
    the ends of its segment in each factor, two of its own coordinates.  A
    new coordinate a meets ends e, f through the tree metric's betweenness
    (Buneman, "A note on the metric properties of trees", 1974):

    - a lies on [e, f] when d(e, a) + d(a, f) = d(e, f), and the ends stay;
    - the segment grows to [e, a] when d(e, a) = d(e, f) + d(f, a);
    - it grows to [a, f] when d(f, a) = d(f, e) + d(e, a);
    - otherwise no segment holds the prefix and a, so the tuple is dropped.

    That reads three entries of two distance rows per factor, each row
    computed once per call.  A single vertex starts with e = f.  Only the
    level being grown keeps its ends; finished levels are plain tuple
    lists.  With `dim_cap` set, a level that passes the cap raises
    `CapExceeded` while it grows, so no later level is started.
    """
    if size < 1:
        raise ValueError("size must be positive")
    ids = list(p.vertices()) if vertices is None else sorted(set(vertices))
    coords = [p.decode(v) for v in ids]
    rows1, rows2 = cache(p.factor1.distances_from), cache(p.factor2.distances_from)

    def check_cap(level: list[tuple[int, ...]], length: int) -> None:
        if dim_cap is not None and len(level) > dim_cap:
            raise CapExceeded(
                f"flatmate tuples of size {length} passed the cap {dim_cap}"
            )

    level = [(v,) for v in ids]
    check_cap(level, 1)
    # (position in ids of the last entry, e1, f1, e2, f2) for each tuple
    ends = [(j, a, a, b, b) for j, (a, b) in enumerate(coords)]
    for length in range(2, size + 1):
        yield level
        last = length == size
        grown: list[tuple[int, ...]] = []
        grown_ends: list[tuple[int, int, int, int, int]] = []
        for tup, (i, e1, f1, e2, f2) in zip(level, ends):
            de1, df1 = rows1(e1), rows1(f1)
            de2, df2 = rows2(e2), rows2(f2)
            d1, d2 = de1[f1], de2[f2]
            for j in range(i + 1, len(ids)):
                a, b = coords[j]
                x, y = de1[a], df1[a]
                if x + y == d1:
                    g1, h1 = e1, f1
                elif x == d1 + y:
                    g1, h1 = e1, a
                elif y == d1 + x:
                    g1, h1 = a, f1
                else:
                    continue
                x, y = de2[b], df2[b]
                if x + y == d2:
                    g2, h2 = e2, f2
                elif x == d2 + y:
                    g2, h2 = e2, b
                elif y == d2 + x:
                    g2, h2 = b, f2
                else:
                    continue
                grown.append(tup + (ids[j],))
                if not last:
                    grown_ends.append((j, g1, h1, g2, h2))
            check_cap(grown, length)
        level, ends = grown, grown_ends
    yield level


def flatmate_tuples(p: ProductComplex, size: int) -> list[tuple[int, ...]]:
    """All canonical flatmate tuples with `size` entries, sorted; the last
    level of `_flatmate_levels`."""
    for level in _flatmate_levels(p, size):
        pass
    return level


def flatmate_exactness(
    p: ProductComplex, n_max: int, *, dim_cap: int = DEFAULT_DIM_CAP
) -> list[DegreeExactness]:
    """Exactness of the flatmate subcomplex at degrees 0..n_max, on bases
    grown in one pass of `_flatmate_levels`."""
    return verify_exactness(
        _flatmate_levels(p, n_max + 2, dim_cap=dim_cap), n_max, dim_cap=dim_cap
    )


def aligned_boundary_problem(t: Tree, degree: int) -> BoundaryProblem:
    """Boundary data over a single tree: rows are the aligned
    (degree+1)-tuples, columns the aligned tuples one up."""
    return BoundaryProblem(
        degree,
        tuple(aligned_tuples(t, degree + 1)),
        tuple(aligned_tuples(t, degree + 2)),
    )


def hull_problem(p: ProductComplex, degree: int, chain: AltChain) -> BoundaryProblem:
    """Filling problem restricted to the hull product around one cycle.

    Take the subtree hulls H1, H2 of the cycle's two coordinate
    projections.  Componentwise nearest-point projection onto H1 x H2
    fixes the cycle, sends flatmate tuples to flatmate tuples (subtree
    projection carries geodesics onto geodesics), and so induces a chain
    map that commutes with the boundary and never increases the l1 norm.
    Applying it to any filling of the cycle yields one supported in
    H1 x H2 of no larger norm, hence the restricted minimum equals the
    minimum over the whole instance.  The restriction is what keeps the
    filling LPs window-sized instead of instance-sized.  Rows and columns
    are the flatmate tuples with every entry in H1 x H2.
    """
    if chain.degree != degree:
        raise ValueError("chain degree does not match the requested problem")
    coords = [p.decode(v) for key in chain.terms for v in key]
    if not coords:
        raise ValueError("hull of the zero chain is undefined")
    h1 = sorted(convex_hull(p.factor1, [a for a, _ in coords]))
    h2 = sorted(convex_hull(p.factor2, [b for _, b in coords]))
    window = [p.encode(a, b) for a in h1 for b in h2]
    *_, rows, columns = _flatmate_levels(p, degree + 2, window)
    return BoundaryProblem(degree, tuple(rows), tuple(columns))


def _tree_diameter(t: Tree) -> int:
    depth = t.rooted.depth
    return max(t.distances_from(depth.index(max(depth))))


def _random_segment(t: Tree, size: int, rng: random.Random) -> list[int]:
    """A uniform-ish geodesic with `size` vertices; size must fit the tree."""
    for _ in range(200):
        u = rng.choice(range(t.vertex_count))
        du = t.distances_from(u)
        ends = [v for v in t.vertices() if du[v] == size - 1]
        if ends:
            return geodesic(t, u, rng.choice(ends))
    raise RuntimeError(f"no geodesic with {size} vertices found")


# Sampled windows are kept to about this many product vertices, and a
# sampled cycle is the boundary of at most this many window tuples.
_WINDOW_CAP = 12
_WINDOW_TERMS = 3


def sample_window_cycles(
    p: ProductComplex, degree: int, count: int, rng: random.Random
) -> list[tuple[AltChain, tuple[tuple[int, ...], ...]]]:
    """Random unit cycles supported in small apartment windows.

    A window is a product of two short geodesic segments, so every tuple
    inside it is flatmate; each cycle is the normalized boundary of a few
    random window tuples one degree up, returned with those tuples as an
    LP warm start.  Window locality keeps the filling problems small while
    still sampling cycles at every position of the instance; it is a
    sampling choice, not a restriction of the complex being probed.
    Factors whose largest window holds fewer than degree + 2 vertices,
    or none (a first factor gives at least two), raise `ValueError` first.
    """
    diam1 = _tree_diameter(p.factor1)
    diam2 = _tree_diameter(p.factor2)
    s1_high = min(6, diam1 + 1, _WINDOW_CAP // 2)
    if s1_high < 2 or s1_high * (diam2 + 1) < degree + 2:
        sizes = (p.factor1.vertex_count, p.factor2.vertex_count)
        raise ValueError(
            f"factors of sizes {sizes} have no window of {degree + 2} vertices, "
            f"so no degree-{degree} cycle can be sampled"
        )
    out: list[tuple[AltChain, tuple[tuple[int, ...], ...]]] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 50 * count + 50:
            raise RuntimeError("cycle sampling kept producing zero boundaries")
        s1 = rng.randint(2, s1_high)
        s2_low = max(2, -(-(degree + 2) // s1))
        s2_high = max(s2_low, min(6, diam2 + 1, _WINDOW_CAP // s1))
        s2 = rng.randint(s2_low, s2_high)
        seg1 = _random_segment(p.factor1, s1, rng)
        seg2 = _random_segment(p.factor2, min(s2, diam2 + 1), rng)
        window = sorted(p.encode(a, b) for a in seg1 for b in seg2)
        if len(window) < degree + 2:
            continue
        width = min(_WINDOW_TERMS, math.comb(len(window), degree + 2))
        picked: set[tuple[int, ...]] = set()
        while len(picked) < width:
            picked.add(tuple(sorted(rng.sample(window, degree + 2))))
        cols = sorted(picked)
        coeffs = [rng.choice((-2, -1, 1, 2)) for _ in cols]
        z = AltChain.from_tuples(list(zip(cols, coeffs))).boundary()
        if z.is_zero():
            continue
        out.append((z * (1 / z.l1_norm()), tuple(cols)))
    return out


@dataclass
class HomotopyNormReport:
    """Per-instance record of the worst minimal filling norm observed.

    `max_min_preimage_norm` is populated only when the flatmate complex is
    exact at `degree` on the instance; the per-degree exactness flags are
    always recorded.
    """

    factor_sizes: tuple[int, int]
    degree: int
    cycles_tested: int
    max_min_preimage_norm: Fraction | None
    exact_flags: tuple[bool, ...]
    seed: str

    @property
    def exact_at_degree(self) -> bool:
        return self.exact_flags[self.degree]

    def to_record(self) -> dict:
        norm = self.max_min_preimage_norm
        return {
            "factor1_size": self.factor_sizes[0],
            "factor2_size": self.factor_sizes[1],
            "degree": self.degree,
            "samples": self.cycles_tested,
            "max_min_norm_num": None if norm is None else norm.numerator,
            "max_min_norm_den": None if norm is None else norm.denominator,
            "exact_flags": "".join("1" if f else "0" for f in self.exact_flags),
        }


def homotopy_norm_probe(
    family: Iterable[ProductComplex],
    degree: int,
    samples: int,
    seed: int | str,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
    lp_basis_cap: int = DEFAULT_LP_BASIS_CAP,
) -> list[HomotopyNormReport]:
    """Probe each instance with random unit cycles and exact minimal fillings.

    Exactness at the probe degree is established per instance before any
    LP runs; an inexact instance is recorded with no norm instead of
    aborting the family.  Each cycle's LP is posed on the hull product
    around its support, where `hull_problem` shows the minimum agrees
    with the instance-wide one.  Instance randomness derives from
    (seed, index) only, so probes are reproducible and order-independent.
    """
    if degree < 1:
        raise ValueError("probe degree must be at least 1")
    reports: list[HomotopyNormReport] = []
    for index, p in enumerate(family):
        instance_seed = f"{seed}:{index}"
        exactness = flatmate_exactness(p, degree, dim_cap=dim_cap)
        flags = tuple(rec.exact for rec in exactness)
        sizes = (p.factor1.vertex_count, p.factor2.vertex_count)
        if not flags[degree]:
            reports.append(
                HomotopyNormReport(sizes, degree, 0, None, flags, instance_seed)
            )
            continue
        rng = random.Random(instance_seed)
        cycles = sample_window_cycles(p, degree, samples, rng)
        worst = Fraction(0)
        for z, witness in cycles:
            result = min_l1_preimage(
                hull_problem(p, degree, z),
                z,
                warm_columns=witness,
                lp_basis_cap=lp_basis_cap,
            )
            if not result.ok:
                raise AssertionError(
                    "a sampled boundary failed to fill; exactness check lied"
                )
            worst = max(worst, result.norm)
        reports.append(
            HomotopyNormReport(
                sizes, degree, len(cycles), worst, flags, instance_seed
            )
        )
    return reports


def flag_growth(
    reports: Sequence[HomotopyNormReport], ratio: Fraction | int
) -> list[int]:
    """Indices whose norm jumped by more than `ratio` over the previous one.

    Instances without a norm (inexact, or zero previous norm) never flag;
    the flags mark data for human inspection, they prove nothing.
    """
    flagged = []
    for i in range(1, len(reports)):
        prev = reports[i - 1].max_min_preimage_norm
        cur = reports[i].max_min_preimage_norm
        if prev is None or cur is None or prev == 0:
            continue
        if cur > ratio * prev:
            flagged.append(i)
    return flagged


def path_product_family(kmin: int, kmax: int) -> list[ProductComplex]:
    """path(k) x path(k) for k = kmin..kmax, k counted in vertices."""
    if kmin < 1 or kmax < kmin:
        raise ValueError("need 1 <= kmin <= kmax")
    return [
        ProductComplex(path_tree(k), path_tree(k)) for k in range(kmin, kmax + 1)
    ]
