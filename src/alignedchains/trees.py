"""Finite trees with exact integer geometry.

Vertices are the integers 0..n-1.  All distances, geodesics, nearest-point
projections and convex hulls are computed combinatorially, so every result
is exact.  Trees are immutable once built and safe to share between tasks.
A tree builds one rooted index (`Tree.rooted`) on first use: an Euler
tour and a sparse table of its minima give a lowest common ancestor (LCA),
so a distance or a median of three, in O(1) (Bender and Farach-Colton,
"The LCA problem revisited", 2000).  Nothing else is kept; each
`distances_from` call is one breadth-first search.  `aligned_tuples` and
`aligned_spines` use neither: they walk a search cut at the spine length.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .limits import DEFAULT_VERTEX_CAP, CapExceeded


class RootedIndex(NamedTuple):
    """Vertex 0 as root: parents, depths, each vertex's first position on
    an Euler tour, and `table[k][i]`, the least key among tour entries
    i .. i + 2**k - 1.  A vertex's key is depth * n + vertex, so the least
    key between two first positions is their LCA's, and key % n its vertex."""

    parent: list[int]
    depth: list[int]
    first: list[int]
    table: list[list[int]]

    def lca_key(self, u: int, v: int) -> int:
        i, j = self.first[u], self.first[v]
        if i > j:
            i, j = j, i
        k = (j - i + 1).bit_length() - 1
        return min(self.table[k][i], self.table[k][j - (1 << k) + 1])

    def lca_keys(self, xs: Sequence[int]) -> list[list[int]]:
        """LCA keys of every two entries of `xs`, as a symmetric matrix."""
        first, table, depth, n = self.first, self.table, self.depth, len(self.first)
        keys = [[depth[w] * n + w] * len(xs) for w in xs]
        for i, j in combinations(range(len(xs)), 2):
            a, b = first[xs[i]], first[xs[j]]
            if a > b:
                a, b = b, a
            k = (b - a + 1).bit_length() - 1
            row = table[k]
            keys[i][j] = keys[j][i] = min(row[a], row[b - (1 << k) + 1])
        return keys


@dataclass(frozen=True)
class Tree:
    """Adjacency-list view of a finite tree on vertices 0..n-1.  Metric
    queries read `rooted`, built by one iterative depth-first walk on first
    use; it is not a field, so not in `==`.  No distance row is memoized."""

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def vertices(self) -> range:
        return range(len(self.adjacency))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def rooted(self) -> RootedIndex:
        adjacency = self.adjacency
        n = len(adjacency)
        parent, depth, first, tour = [-1] * n, [0] * n, [0] * n, [0]
        stack = [(0, iter(adjacency[0]))]
        while stack:
            v, rest = stack[-1]
            w = next(rest, -1)
            if w < 0:
                stack.pop()
                if stack:  # back at the parent: its key again
                    tour.append(tour[first[parent[v]]])
            elif w != parent[v]:
                parent[w], depth[w], first[w] = v, depth[v] + 1, len(tour)
                tour.append(depth[w] * n + w)
                stack.append((w, iter(adjacency[w])))
        table = [tour]
        while 2 ** len(table) <= len(tour):
            half = 2 ** (len(table) - 1)
            table.append(list(map(min, table[-1], table[-1][half:])))
        return RootedIndex(parent, depth, first, table)

    def distances_from(self, source: int) -> list[int]:
        """All distances from `source`, by one breadth-first search."""
        dist = [-1] * len(self.adjacency)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for w in self.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        return dist

    def distance(self, u: int, v: int) -> int:
        depth = self.rooted.depth
        return depth[u] + depth[v] - 2 * (self.rooted.lca_key(u, v) // len(depth))


def build_tree(edges: Iterable[tuple[int, int]], vertex_count: int | None = None) -> Tree:
    """Validate an edge list and return the tree it spans.

    The ids must cover a contiguous range 0..n-1; the edges must form a
    connected acyclic graph.  `vertex_count` is only needed for the
    single-vertex tree, which has no edges.
    """
    edge_list = [(int(a), int(b)) for a, b in edges]
    for a, b in edge_list:
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        if a < 0 or b < 0:
            raise ValueError(f"negative vertex id in edge ({a}, {b})")
    if not edge_list:
        if vertex_count is None:
            vertex_count = 1
        if vertex_count != 1:
            raise ValueError("an edgeless tree must have exactly one vertex")
        return Tree(((),))
    n = max(max(a, b) for a, b in edge_list) + 1
    if vertex_count is not None and vertex_count != n:
        raise ValueError(f"vertex_count {vertex_count} does not match ids (max id {n - 1})")
    if len(edge_list) != n - 1:
        raise ValueError(f"{len(edge_list)} edges on {n} vertices cannot form a tree")
    seen_pairs: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edge_list:
        key = (min(a, b), max(a, b))
        if key in seen_pairs:
            raise ValueError(f"duplicate edge ({a}, {b})")
        seen_pairs.add(key)
        adj[a].append(b)
        adj[b].append(a)
    # Edge count is right, so connectivity also rules out cycles.  The walk
    # builds no rooted index.
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    if not all(seen):
        raise ValueError("edges do not form a connected tree (missing or isolated ids)")
    return Tree(tuple(tuple(sorted(ns)) for ns in adj))


def parse_edge_list(text: str) -> list[tuple[int, int]]:
    """Parse the edge-list text format: one `u v` pair per line, # comments."""
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two vertex ids, got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex id in {raw!r}") from exc
    return edges


def load_tree(path: str) -> Tree:
    with open(path, "r", encoding="utf-8") as handle:
        return build_tree(parse_edge_list(handle.read()))


def path_tree(length: int) -> Tree:
    """Path with `length` vertices 0-1-...-(length-1)."""
    if length < 1:
        raise ValueError("a path needs at least one vertex")
    return build_tree([(i, i + 1) for i in range(length - 1)], vertex_count=length)


def regular_ball(branching: int, radius: int, vertex_cap: int = DEFAULT_VERTEX_CAP) -> Tree:
    """Ball of the given radius in the `branching`-regular tree.

    Every non-leaf vertex has degree `branching`; leaves sit exactly at
    distance `radius` from the root.  Ids are assigned in BFS order with
    the root at 0, so the layout is deterministic.
    """
    if branching < 3:
        raise ValueError("branching must be at least 3")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    count = 1
    layer = branching
    for _ in range(radius):
        count += layer
        layer *= branching - 1
    if count > vertex_cap:
        raise CapExceeded(f"regular ball would have {count} vertices (cap {vertex_cap})")
    if radius == 0:
        return Tree(((),))
    edges: list[tuple[int, int]] = []
    next_id = 1
    frontier = [0]
    for depth in range(radius):
        children_each = branching if depth == 0 else branching - 1
        new_frontier = []
        for parent in frontier:
            for _ in range(children_each):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return build_tree(edges, vertex_count=next_id)


def random_tree(n: int, seed: int | str) -> Tree:
    """Uniform random labeled tree on n vertices via a Prufer sequence."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return Tree(((),))
    if n == 2:
        return build_tree([(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_pruefer(seq)


def tree_from_pruefer(seq: Sequence[int]) -> Tree:
    """Decode a Prufer sequence over 0..n-1 (n = len(seq) + 2)."""
    n = len(seq) + 2
    degree = [1] * n
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"sequence entry {s} out of range for n={n}")
        degree[s] += 1
    edges: list[tuple[int, int]] = []
    # Always join the smallest current leaf to the next sequence entry.
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    # The two unconsumed leaves form the final edge.
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return build_tree(edges, vertex_count=n)


def geodesic(t: Tree, u: int, v: int) -> list[int]:
    """Vertices of the unique path from u to v, inclusive: parents climbed
    from both ends to their LCA."""
    index = t.rooted
    top = index.lca_key(u, v) % t.vertex_count
    up, down = [u], [v]
    for path in (up, down):
        while path[-1] != top:
            path.append(index.parent[path[-1]])
    return up + down[-2::-1]


def project_to_segment(t: Tree, w: int, u: int, v: int) -> int:
    """Nearest point to w on the segment [u, v]: the median of w, u and v,
    on all three of their geodesics, which is the deepest of their
    pairwise LCAs (a tree is a median graph)."""
    lca_key = t.rooted.lca_key
    return max(lca_key(w, u), lca_key(w, v), lca_key(u, v)) % t.vertex_count


def convex_hull(t: Tree, tup: Sequence[int]) -> frozenset[int]:
    """Vertex set of the subtree spanned by a tuple.

    It is the union of the geodesics from the lowest entry p to the others:
    in a tree [a, b] lies in [p, a] | [p, b], so no other pair adds a vertex.
    """
    if not tup:
        raise ValueError("hull of an empty tuple is undefined")
    p, *rest = sorted(set(tup))
    verts: set[int] = {p}
    for a in rest:
        verts.update(geodesic(t, p, a))
    return frozenset(verts)


def diametral_pair(t: Tree, tup: Sequence[int]) -> tuple[int, int] | None:
    """Sorted ends of the one segment holding every entry, or None when the
    entries are not aligned.

    The ends are the farthest-apart pair of entries; on an aligned tuple
    with distinct entries that pair is unique.  One entry gives (v, v).
    """
    points = list(dict.fromkeys(tup))
    if len(points) <= 2:
        return min(points), max(points)
    best = (0, points[0], points[0])
    for a, b in combinations(points, 2):
        d = t.distance(a, b)
        if d > best[0]:
            best = (d, a, b)
    dmax, a, b = best
    if any(t.distance(a, p) + t.distance(p, b) != dmax for p in points):
        return None
    return (a, b) if a < b else (b, a)


def is_aligned(t: Tree, tup: Sequence[int]) -> bool:
    """True when all entries lie on one geodesic segment."""
    return not tup or diametral_pair(t, tup) is not None


def aligned_spines(
    t: Tree,
    size: int,
    *,
    vertices: Iterable[int] | None = None,
    max_length: int | None = None,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every canonical aligned tuple with `size` entries, with its spine.

    The spine is the geodesic between the tuple's extremal pair, read from
    the lower id to the higher.  Each aligned vertex set is generated once,
    from that pair u < v, by one breadth-first search from u cut at
    `max_length` (the whole tree when None), level by level; each reached
    vertex keeps its parent and its walk from u, the parent's walk plus
    itself, so no distance row is read.  `vertices` keeps only tuples whose
    entries all lie in that subset; the search still crosses vertices
    outside it, so non-convex subsets are exact.  The pairs come in no
    particular order.
    """
    if size < 1:
        raise ValueError("size must be positive")
    ids = t.vertices() if vertices is None else sorted(set(vertices))
    if size == 1:
        for v in ids:
            yield (v,), (v,)
        return
    inside = None if vertices is None else set(ids)
    longest = t.vertex_count if max_length is None else max_length
    adjacency = t.adjacency
    for u in ids:
        # (vertex, parent, walk from u) for every vertex at the current depth
        level = [(u, -1, (u,))]
        for depth in range(1, longest + 1):
            level = [
                (w, x, walk + (w,))
                for x, parent, walk in level
                for w in adjacency[x]
                if w != parent
            ]
            if not level:
                break
            if depth < size - 1:
                continue
            for v, _, spine in level:
                if v <= u or (inside is not None and v not in inside):
                    continue
                if size == 2:
                    yield (u, v), spine
                    continue
                interior = spine[1:-1]
                if inside is not None:
                    interior = [w for w in interior if w in inside]
                for combo in combinations(interior, size - 2):
                    yield tuple(sorted((u, v) + combo)), spine


def aligned_tuples(
    t: Tree,
    size: int,
    *,
    vertices: Iterable[int] | None = None,
    max_length: int | None = None,
) -> list[tuple[int, ...]]:
    """All canonical (sorted, distinct) aligned tuples with `size` entries,
    sorted: the tuples of `aligned_spines`, whose restrictions they take."""
    return sorted(
        tup
        for tup, _ in aligned_spines(t, size, vertices=vertices, max_length=max_length)
    )


class PartialIsometry:
    """Injective, distance-preserving map between subsets of a tree."""

    def __init__(self, mapping: dict[int, int]):
        self.mapping = dict(mapping)

    def apply(self, v: int) -> int:
        return self.mapping[v]

    def domain(self) -> set[int]:
        return set(self.mapping)

    def validate(self, t: Tree) -> None:
        """Raise ValueError unless injective and distance-preserving on t."""
        items = sorted(self.mapping.items())
        if len({b for _, b in items}) != len(items):
            raise ValueError("mapping is not injective")
        for i, (a1, b1) in enumerate(items):
            for a2, b2 in items[i + 1 :]:
                d, e = t.distance(a1, a2), t.distance(b1, b2)
                if d != e:
                    raise ValueError(
                        f"distance mismatch: d({a1},{a2})={d} but d({b1},{b2})={e}"
                    )

    def has_even_displacement(self, t: Tree) -> bool:
        return all(t.distance(a, b) % 2 == 0 for a, b in self.mapping.items())


def extend_partial_isometry(
    t: Tree, seed: PartialIsometry | dict[int, int], targets: Iterable[int]
) -> PartialIsometry | None:
    """Greedily extend a partial isometry until it covers `targets`.

    Unmapped vertices are processed outward from the current domain along
    the paths leading to the targets; each one takes the lowest-id image
    that preserves every pairwise distance.  Returns None when some vertex
    has no valid image (degree or boundary obstruction).
    """
    mapping = dict(seed.mapping if isinstance(seed, PartialIsometry) else seed)
    if not mapping:
        raise ValueError("seed must map at least one vertex")
    PartialIsometry(mapping).validate(t)
    target_set = set(targets)
    pending = target_set - mapping.keys()
    # Vertices to traverse: every vertex on a path from a target to the
    # nearest mapped vertex, ordered by distance from the domain.
    needed: set[int] = set()
    for tv in pending:
        anchor = min(mapping, key=lambda m: (t.distance(tv, m), m))
        needed.update(geodesic(t, tv, anchor))
    needed -= mapping.keys()
    used = set(mapping.values())
    while needed:
        # Next vertex adjacent to the mapped region, lowest id first.
        frontier = sorted(
            w for w in needed if any(nb in mapping for nb in t.adjacency[w])
        )
        if not frontier:
            return None
        w = frontier[0]
        anchor = next(nb for nb in t.adjacency[w] if nb in mapping)
        image = None
        for cand in t.adjacency[mapping[anchor]]:
            if cand in used:
                continue
            if all(t.distance(w, a) == t.distance(cand, b) for a, b in mapping.items()):
                image = cand
                break
        if image is None:
            return None
        mapping[w] = image
        used.add(image)
        needed.discard(w)
    return PartialIsometry(mapping)
