"""Reference implementations the tests check the package against.

They read distances from breadth-first rows of their own and walk
segments by those rows: the projection by offsets along the segment,
not by medians, and alignment by the farthest pair and betweenness.
Nothing here reads the tree's rooted LCA index; a test in
`test_trees.py` runs every function here with that index made to raise.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from itertools import combinations
from typing import Callable, Sequence

from alignedchains.chains import AltChain, Rational
from alignedchains.flatmate import ProductComplex
from alignedchains.projection import CaterpillarForm
from alignedchains.trees import Tree


def bfs_row(t: Tree, source: int) -> list[int]:
    """Distances from `source` to every vertex."""
    dist = [-1] * t.vertex_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in t.adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@cache
def all_rows(t: Tree) -> list[list[int]]:
    """Every vertex's distance row, computed once per tree."""
    return [bfs_row(t, v) for v in t.vertices()]


def is_flatmate(p: ProductComplex, tup: Sequence[int]) -> bool:
    """True when both coordinate projections of the tuple are aligned: in
    each factor, every coordinate lies between the farthest-apart two."""
    n2 = p.factor2.vertex_count
    factors = ((p.factor1, {v // n2 for v in tup}), (p.factor2, {v % n2 for v in tup}))
    for t, points in factors:
        if len(points) > 2:
            rows = all_rows(t)
            a, b = max(combinations(points, 2), key=lambda e: rows[e[0]][e[1]])
            if any(rows[a][w] + rows[w][b] != rows[a][b] for w in points):
                return False
    return True


def has_even_displacement(t: Tree, mapping: dict[int, int]) -> bool:
    """True when every vertex moves an even distance: in a tree that is
    when it keeps the parity of its distance from vertex 0."""
    depth = bfs_row(t, 0)
    return all((depth[a] - depth[b]) % 2 == 0 for a, b in mapping.items())


def face(chain: AltChain, j: int) -> AltChain:
    """Drop the j-th coordinate of every canonical term."""
    out: dict[tuple[int, ...], Rational] = {}
    for key, coeff in chain.terms.items():
        dropped = key[:j] + key[j + 1 :]
        out[dropped] = out.get(dropped, 0) + coeff
    return AltChain(chain.degree - 1, {key: c for key, c in out.items() if c})


def map_vertices(chain: AltChain, func: Callable[[int], int]) -> AltChain:
    """Push a chain through a vertex map; a term whose images repeat is zero."""
    if not chain.terms:
        return AltChain.zero(chain.degree)
    return AltChain.from_tuples(
        (tuple(map(func, key)), coeff) for key, coeff in chain.terms.items()
    )


def bfs_geodesic(t: Tree, u: int, v: int, row_v: Sequence[int] | None = None) -> list[int]:
    """The path from u to v, stepping each time to the neighbour one closer
    to v; `row_v` is v's distance row when the caller has it."""
    dist_v = bfs_row(t, v) if row_v is None else row_v
    path = [u]
    while path[-1] != v:
        cur = path[-1]
        path.append(next(w for w in t.adjacency[cur] if dist_v[w] == dist_v[cur] - 1))
    return path


def bfs_median(rows: dict[int, Sequence[int]], a: int, b: int, c: int) -> int:
    """The one vertex on all three geodesics between a, b and c, found by
    distance sums alone from the rows of a, b and c."""
    ra, rb, rc = rows[a], rows[b], rows[c]
    (m,) = [
        w
        for w in range(len(ra))
        if ra[w] + rb[w] == ra[b] and ra[w] + rc[w] == ra[c] and rb[w] + rc[w] == rb[c]
    ]
    return m


def project_tuple(t: Tree, tup: Sequence[int]) -> AltChain:
    """Projection of one tuple, from its entries' distance rows: on
    [x_i, x_j] the point nearest x_k sits at offset
    (d(x_k, x_i) + d(x_i, x_j) - d(x_k, x_j)) / 2 from x_i, and a pair whose
    offsets repeat gives a zero term."""
    x = tuple(tup)
    n = len(x) - 1
    if n < 0:
        raise ValueError("empty tuple has no degree")
    if n == 0:
        return AltChain.basis(x)
    rows = {w: bfs_row(t, w) for w in set(x)}
    dist = [[rows[v][w] for w in x] for v in x]
    pairs = []
    for i, j in combinations(range(n + 1), 2):
        length = dist[i][j]
        offsets = [(a + length - b) // 2 for a, b in zip(dist[i], dist[j])]
        if len(set(offsets)) <= n:
            continue
        seg = bfs_geodesic(t, x[i], x[j], rows[x[j]])
        pairs.append((tuple(seg[o] for o in offsets), 1))
    if not pairs:
        return AltChain.zero(n)
    return AltChain.from_tuples(pairs)


def caterpillar_layout(
    t: Tree, tup: Sequence[int], i: int, j: int
) -> CaterpillarForm | None:
    """Caterpillar form of `tup` over [tup_i, tup_j] from offsets along the
    walked segment, or None when two offsets repeat."""
    x = tuple(tup)
    if not (0 <= i < j <= len(x) - 1):
        raise ValueError("need 0 <= i < j within the tuple")
    u, v = x[i], x[j]
    du, dv = bfs_row(t, u), bfs_row(t, v)
    length = du[v]
    offsets = [(du[w] + length - dv[w]) // 2 for w in x]
    if len(set(offsets)) != len(x):
        return None
    seg = bfs_geodesic(t, u, v, dv)
    order = tuple(sorted(range(len(x)), key=offsets.__getitem__))
    return CaterpillarForm(order, tuple(seg[offsets[k]] for k in order))
