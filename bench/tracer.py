"""Per-layer tracing from outside the program.

The tracer wraps public functions of the `alignedchains` modules for the
duration of one traced pass. Because the package imports with
`from .x import y`, a function is replaced in every module that holds a
binding to it; methods are replaced on their class. Wrapped functions
record spans (name, start, end, parent) in memory; hot one-liners only
bump a counter, since timing them would cost more than they do.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

PACKAGE = "alignedchains"

# (module, qualified name) of every timed function.
SPANNED = [
    ("cli", "run"),
    ("cli", "resolve_tree"),
    ("reporting", "render"),
    ("reporting", "write_atomic"),
    ("flatmate", "homotopy_norm_probe"),
    ("flatmate", "flatmate_exactness"),
    ("flatmate", "flatmate_tuples"),
    ("flatmate", "hull_problem"),
    ("flatmate", "sample_window_cycles"),
    ("lp", "min_l1_preimage"),
    ("exactness", "verify_exactness"),
    ("exactness", "rank_of_columns"),
    ("orbits", "orbit_class_census"),
    ("orbits", "orbit_witness"),
    ("orbits", "aligned_signature"),
    ("trees", "extend_partial_isometry"),
    ("trees", "aligned_tuples"),
    ("trees", "regular_ball"),
    ("projection", "project_tuple"),
    ("projection", "caterpillar_layout"),
    ("projection", "verify_chain_map"),
    ("projection", "projection_norm_scan"),
    ("projection", "verify_bracket_identities"),
    ("chains", "AltChain.boundary"),
]

# (module, qualified name) of every counted-only function.
COUNTED = [
    ("exactness", "ColumnEchelon.insert"),
    ("trees", "Tree.distances_from"),
    ("trees", "geodesic"),
    ("trees", "is_aligned"),
    ("chains", "AltChain.from_tuples"),
]


class Metric(NamedTuple):
    unit: str
    better: str
    moves: str  # which end-to-end metric it should move, on which workload


_LP = "wall_s on fill-paths; nothing on the other three"
_EXACT = "wall_s on exact-aligned, about a twentieth as much on fill-paths"
_FLAT = "wall_s on fill-paths"
_ORBIT = "wall_s on orbit-census"
_DIST = "peak_rss_mb on orbit-census, wall_s on project-sample"
_GEOM = "wall_s on project-sample and exact-aligned; setup_s nowhere"
_PROJ = "wall_s on project-sample only"
_REPORT = "a small share of wall_s on every workload"

PER_LAYER: dict[str, Metric] = {
    "lp.min_l1_preimage.calls": Metric("count", "lower", _LP),
    "lp.min_l1_preimage.self_s": Metric("s", "lower", _LP),
    "lp.min_l1_preimage.p50_ms": Metric("ms", "lower", _LP),
    "lp.min_l1_preimage.p95_ms": Metric("ms", "lower", _LP),
    "lp.rounds": Metric("count", "lower", _LP),
    "lp.rounds_per_call": Metric("count", "lower", _LP),
    "lp.problem_rows_max": Metric("count", "lower", _LP),
    "lp.problem_columns_mean": Metric("count", "lower", _LP),
    "lp.optimal_frac": Metric("ratio", "higher", _LP),
    "exactness.verify_exactness.self_s": Metric("s", "lower", _EXACT),
    "exactness.rank_of_columns.self_s": Metric("s", "lower", _EXACT),
    "exactness.columns_inserted": Metric("count", "lower", _EXACT),
    "exactness.pivots": Metric("count", "lower", _EXACT),
    "exactness.pivot_frac": Metric("ratio", "higher", _EXACT),
    "exactness.basis_tuples": Metric("count", "lower", _EXACT),
    "flatmate.homotopy_norm_probe.s": Metric("s", "lower", _FLAT),
    "flatmate.flatmate_exactness.self_s": Metric("s", "lower", _FLAT),
    "flatmate.flatmate_tuples.self_s": Metric("s", "lower", _FLAT),
    "flatmate.hull_problem.calls": Metric("count", "lower", _FLAT),
    "flatmate.hull_problem.self_s": Metric("s", "lower", _FLAT),
    "flatmate.sample_window_cycles.self_s": Metric("s", "lower", _FLAT),
    "orbits.orbit_class_census.self_s": Metric("s", "lower", _ORBIT),
    "orbits.orbit_witness.calls": Metric("count", "lower", _ORBIT),
    "orbits.orbit_witness.self_s": Metric("s", "lower", _ORBIT),
    "orbits.aligned_signature.calls": Metric("count", "lower", _ORBIT),
    "orbits.aligned_signature.self_s": Metric("s", "lower", _ORBIT),
    "orbits.witness_ok_frac": Metric("ratio", "higher", _ORBIT),
    "trees.extend_partial_isometry.calls": Metric("count", "lower", _ORBIT),
    "trees.extend_partial_isometry.self_s": Metric("s", "lower", _ORBIT),
    "trees.distances_from.calls": Metric("count", "lower", _DIST),
    "trees.distances_from.sources": Metric("count", "lower", _DIST),
    "trees.geodesic.calls": Metric("count", "lower", _GEOM),
    "trees.is_aligned.calls": Metric("count", "lower", _GEOM),
    "trees.aligned_tuples.self_s": Metric("s", "lower", _GEOM),
    "trees.aligned_tuples.tuples": Metric("count", "lower", _GEOM),
    "trees.regular_ball.s": Metric("s", "lower", _GEOM),
    "projection.project_tuple.calls": Metric("count", "lower", _PROJ),
    "projection.project_tuple.self_s": Metric("s", "lower", _PROJ),
    "projection.caterpillar_layout.calls": Metric("count", "lower", _PROJ),
    "projection.caterpillar_layout.self_s": Metric("s", "lower", _PROJ),
    "projection.verify_chain_map.self_s": Metric("s", "lower", _PROJ),
    "projection.projection_norm_scan.self_s": Metric("s", "lower", _PROJ),
    "projection.verify_bracket_identities.self_s": Metric("s", "lower", _PROJ),
    "chains.AltChain.boundary.calls": Metric("count", "lower", _PROJ),
    "chains.AltChain.boundary.self_s": Metric("s", "lower", _PROJ),
    "chains.AltChain.from_tuples.calls": Metric("count", "lower", _PROJ),
    "cli.run.s": Metric("s", "lower", _REPORT),
    "cli.resolve_tree.s": Metric("s", "lower", _REPORT),
    "reporting.render.s": Metric("s", "lower", _REPORT),
    "reporting.write_atomic.s": Metric("s", "lower", _REPORT),
    "reporting.bytes": Metric("bytes", "lower", _REPORT),
    "trace.overhead_s": Metric(
        "s", "lower", "traced wall_s minus untraced wall_s; moves nothing untraced"
    ),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        clipped = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children[i]
        )
        for start, end in clipped:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        out.append(span.end - span.start - covered)
    return out


def _resolve(module: str, qualname: str) -> tuple[Any, str, Any]:
    """(owner, attribute, original) for a module-level name or a method."""
    owner: Any = importlib.import_module(f"{PACKAGE}.{module}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Spans, counters and per-call observations of one traced pass."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.lp_rows: list[int] = []
        self.lp_columns: list[int] = []
        self.sources: dict[int, tuple[Any, set[int]]] = {}

    def spans(self) -> list[Span]:
        return [
            Span(n, s, e, p)
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]

    def timed(self, name: str, fn: Callable) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack = self.parents, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name: str, fn: Callable, timed: bool) -> Callable:
        """A timed or counting wrapper, plus the observer some layers need on
        their arguments or result."""
        counts = self.counts
        if name == "exactness.ColumnEchelon.insert":

            def insert(self_, column):
                counts[name] += 1
                pivot = fn(self_, column)
                counts["exactness.pivots"] += pivot
                return pivot

            return insert
        if name == "trees.Tree.distances_from":
            sources = self.sources

            def distances_from(tree, source):
                counts[name] += 1
                entry = sources.get(id(tree))
                if entry is None:
                    # Holding the tree keeps its id from being reused.
                    entry = sources[id(tree)] = (tree, set())
                entry[1].add(source)
                return fn(tree, source)

            return distances_from
        if name == "lp.min_l1_preimage":

            def min_l1_preimage(problem, z, **kwargs):
                result = fn(problem, z, **kwargs)
                self.lp_rows.append(len(problem.rows))
                self.lp_columns.append(len(problem.columns))
                counts["lp.rounds"] += result.rounds
                counts["lp.optimal"] += result.status == "optimal"
                return result

            return self.timed(name, min_l1_preimage)
        if name == "exactness.verify_exactness":

            def verify_exactness(*args, **kwargs):
                records = fn(*args, **kwargs)
                counts["exactness.basis_tuples"] += sum(rec.dim for rec in records)
                return records

            return self.timed(name, verify_exactness)
        if name == "orbits.orbit_witness":

            def orbit_witness(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["orbits.witness_ok"] += result.ok
                return result

            return self.timed(name, orbit_witness)
        if name == "trees.aligned_tuples":

            def aligned_tuples(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts["trees.aligned_tuples.tuples"] += len(out)
                return out

            return self.timed(name, aligned_tuples)
        if name == "reporting.write_atomic":

            def write_atomic(path, text):
                counts["reporting.bytes"] += len(text.encode("utf-8"))
                return fn(path, text)

            return self.timed(name, write_atomic)
        return self.timed(name, fn) if timed else self.counted(name, fn)

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Start a fresh pass: install the wrappers, and restore every
        original binding on exit."""
        self.reset()
        undo: list[tuple[Any, str, Any]] = []
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        try:
            for timed, targets in ((True, SPANNED), (False, COUNTED)):
                for module, qualname in targets:
                    owner, attr, original = _resolve(module, qualname)
                    method = isinstance(original, classmethod)
                    fn = original.__func__ if method else original
                    wrapper = self.wrap(f"{module}.{qualname}", fn, timed)
                    replacement = classmethod(wrapper) if method else wrapper
                    if isinstance(owner, type):
                        undo.append((owner, attr, original))
                        setattr(owner, attr, replacement)
                        continue
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                undo.append((m, key, original))
                                setattr(m, key, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass recorded since the last reset."""
        spans = self.spans()
        own = self_times(spans)
        self_s: Counter[str] = Counter()
        total_s: Counter[str] = Counter()
        calls: Counter[str] = Counter(self.counts)
        for i, span in enumerate(spans):
            calls[span.name] += 1
            self_s[span.name] += own[i]
            parent = span.parent
            while parent >= 0 and spans[parent].name != span.name:
                parent = spans[parent].parent
            if parent < 0:  # outermost call of its name: count it inclusively
                total_s[span.name] += span.end - span.start

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        lp_calls = calls["lp.min_l1_preimage"]
        lp_ms = [
            (span.end - span.start) * 1000
            for span in spans
            if span.name == "lp.min_l1_preimage"
        ]
        lp_q = (
            statistics.quantiles(lp_ms, n=20, method="inclusive")
            if len(lp_ms) > 1
            else lp_ms * 19 or [0.0] * 19
        )
        out = {
            "lp.min_l1_preimage.p50_ms": lp_q[9],
            "lp.min_l1_preimage.p95_ms": lp_q[18],
            "lp.rounds": calls["lp.rounds"],
            "lp.rounds_per_call": ratio(calls["lp.rounds"], lp_calls),
            "lp.problem_rows_max": max(self.lp_rows, default=0),
            "lp.problem_columns_mean": ratio(sum(self.lp_columns), lp_calls),
            "lp.optimal_frac": ratio(calls["lp.optimal"], lp_calls),
            "exactness.columns_inserted": calls["exactness.ColumnEchelon.insert"],
            "exactness.pivots": calls["exactness.pivots"],
            "exactness.pivot_frac": ratio(
                calls["exactness.pivots"], calls["exactness.ColumnEchelon.insert"]
            ),
            "exactness.basis_tuples": calls["exactness.basis_tuples"],
            "orbits.witness_ok_frac": ratio(
                calls["orbits.witness_ok"], calls["orbits.orbit_witness"]
            ),
            "trees.distances_from.calls": calls["trees.Tree.distances_from"],
            "trees.distances_from.sources": sum(
                len(seen) for _, seen in self.sources.values()
            ),
            "trees.aligned_tuples.tuples": calls["trees.aligned_tuples.tuples"],
            "reporting.bytes": calls["reporting.bytes"],
        }
        for metric in PER_LAYER:
            if metric in out or metric == "trace.overhead_s":
                continue
            span_name, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[span_name]
            elif kind == "self_s":
                out[metric] = self_s[span_name]
            elif kind == "s":
                out[metric] = total_s[span_name]
            else:
                raise KeyError(f"no rule computes {metric}")
        return out
