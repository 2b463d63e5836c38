"""Finite invariants that separate aligned tuples up to tree symmetry.

An aligned tuple lies on a segment, so up to the symmetries of a regular
tree it is determined by the gap pattern between consecutive points and,
when only even-displacement (type-preserving) maps are allowed, by the
bipartition class of its endpoint.  Both data are canonicalized under
reading the segment from either end; reversing flips the endpoint type by
the parity of the total length, because segment ends at odd distance sit
in opposite bipartition classes.

Witnesses are explicit partial isometries built spine-to-spine and then
extended one step outward, so a successful witness certifies membership in
one orbit at finite scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .chains import canonicalize_tuple
from .trees import (
    PartialIsometry,
    Tree,
    extend_partial_isometry,
    geodesic,
    is_aligned,
)


@dataclass(frozen=True)
class AlignedSignature:
    """Canonical (type, gaps) class of an aligned tuple, plus the
    alternation sign of sorting the tuple into canonical spine order."""

    type_bit: int | None
    gaps: tuple[int, ...]
    sort_sign: int

    @property
    def class_key(self) -> tuple[int | None, tuple[int, ...]]:
        return (self.type_bit, self.gaps)

    def to_record(self) -> dict:
        return {
            "type_bit": self.type_bit,
            "gaps": list(self.gaps),
            "sort_sign": self.sort_sign,
        }


def _signature_data(
    t: Tree, tup: Sequence[int], type_preserving: bool
) -> tuple[AlignedSignature, list[int]]:
    """Signature plus the spine geodesic in its canonical orientation."""
    x = tuple(tup)
    if len(set(x)) != len(x):
        raise ValueError("signature needs pairwise distinct entries")
    if not is_aligned(t, x):
        raise ValueError("signature is defined for aligned tuples only")
    parity = lambda v: t.distance(0, v) % 2
    if len(x) == 1:
        sig = AlignedSignature(parity(x[0]) if type_preserving else None, (), 1)
        return sig, [x[0]]

    # Extremal pair; lowest ids on ties so the forward form is stable.
    end_a, end_b = min(
        ((a, b) for a, b in combinations(sorted(x), 2)),
        key=lambda pair: (-t.distance(pair[0], pair[1]), pair),
    )
    dist_a = t.distances_from(end_a)
    total = dist_a[end_b]
    order_f = tuple(sorted(range(len(x)), key=lambda k: dist_a[x[k]]))
    pos_f = tuple(dist_a[x[k]] for k in order_f)
    gaps_f = tuple(pos_f[m + 1] - pos_f[m] for m in range(len(pos_f) - 1))
    gaps_r = gaps_f[::-1]
    type_f = parity(end_a)
    type_r = (type_f + total) % 2

    if type_preserving:
        use_forward = (type_f, gaps_f) <= (type_r, gaps_r)
    else:
        use_forward = gaps_f <= gaps_r
    if use_forward:
        chosen_type = type_f if type_preserving else None
        chosen_gaps = gaps_f
        order = order_f
        spine = geodesic(t, end_a, end_b)
    else:
        chosen_type = type_r if type_preserving else None
        chosen_gaps = gaps_r
        order = order_f[::-1]
        spine = geodesic(t, end_b, end_a)
    sig = AlignedSignature(chosen_type, chosen_gaps, canonicalize_tuple(order)[1])
    return sig, spine


def aligned_signature(
    t: Tree, tup: Sequence[int], type_preserving: bool = True
) -> AlignedSignature:
    """Reversal-canonical signature of an aligned tuple with distinct entries."""
    sig, _ = _signature_data(t, tup, type_preserving)
    return sig


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of an orbit witness attempt.

    status is one of "ok", "signature_mismatch", "ball_too_small"; the
    last one means the spines match but the finite tree has no room to
    extend the map one step outward.
    """

    status: str
    isometry: PartialIsometry | None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def orbit_witness(
    t: Tree, x: Sequence[int], y: Sequence[int], type_preserving: bool = True
) -> WitnessResult:
    """Construct a partial isometry carrying the spine of x onto the spine
    of y, both read in canonical orientation.

    Equal signatures guarantee the spine map itself; the witness also
    extends it to the neighbors of the spine, which certifies one further
    step of rigidity and fails (distinctly) near the boundary of a ball
    that is too small.  In type-preserving mode every displacement of the
    returned map is even.
    """
    sig_x, spine_x = _signature_data(t, x, type_preserving)
    sig_y, spine_y = _signature_data(t, y, type_preserving)
    if sig_x.class_key != sig_y.class_key:
        return WitnessResult("signature_mismatch", None)
    seed = dict(zip(spine_x, spine_y))
    targets = set(spine_x)
    for v in spine_x:
        targets.update(t.adjacency[v])
    extended = extend_partial_isometry(t, seed, targets)
    if extended is None:
        return WitnessResult("ball_too_small", None)
    if type_preserving and not extended.has_even_displacement(t):
        raise RuntimeError("type-preserving witness produced an odd displacement")
    return WitnessResult("ok", extended)


@dataclass(frozen=True)
class OrbitClassRecord:
    type_bit: int | None
    gaps: tuple[int, ...]
    size: int
    witnessed: bool

    def to_record(self) -> dict:
        return {
            "type_bit": self.type_bit,
            "gaps": list(self.gaps),
            "size": self.size,
            "witnessed": self.witnessed,
        }


@dataclass(frozen=True)
class CensusReport:
    degree: int
    diameter_cap: int
    type_preserving: bool
    total_tuples: int
    classes: tuple[OrbitClassRecord, ...]
    ball_too_small: int

    @property
    def class_count(self) -> int:
        return len(self.classes)

    @property
    def all_witnessed(self) -> bool:
        return all(c.witnessed for c in self.classes)

    def to_records(self) -> list[dict]:
        return [c.to_record() for c in self.classes]


def orbit_class_census(
    t: Tree,
    degree: int,
    diameter_cap: int,
    type_preserving: bool = True,
    root: int = 0,
) -> CensusReport:
    """Enumerate aligned tuples near the root, bucket them by signature,
    and certify each bucket as one orbit by witnessing every member
    against the bucket's first member.

    Tuples keep all coordinates within distance diameter_cap + 1 of the
    root and have spine length at most diameter_cap.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if diameter_cap < degree:
        raise ValueError("diameter cap below minimal spine length for the degree")
    droot = t.distances_from(root)
    region = [v for v in t.vertices() if droot[v] <= diameter_cap + 1]
    size = degree + 1
    tuples: list[tuple[int, ...]] = []
    if size == 1:
        tuples = [(v,) for v in region]
    else:
        for u, v in combinations(region, 2):
            d = t.distance(u, v)
            if d < size - 1 or d > diameter_cap:
                continue
            interior = geodesic(t, u, v)[1:-1]
            for combo in combinations(interior, size - 2):
                tuples.append(tuple(sorted((u, v) + combo)))
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for tup in sorted(tuples):
        key = aligned_signature(t, tup, type_preserving).class_key
        buckets.setdefault(key, []).append(tup)

    def bucket_order(key: tuple) -> tuple:
        type_bit, gaps = key
        return (gaps, -1 if type_bit is None else type_bit)

    records = []
    too_small = 0
    for key in sorted(buckets, key=bucket_order):
        members = buckets[key]
        rep = members[0]
        witnessed = True
        for member in members:
            result = orbit_witness(t, rep, member, type_preserving)
            if not result.ok:
                witnessed = False
                if result.status == "ball_too_small":
                    too_small += 1
        records.append(
            OrbitClassRecord(
                type_bit=key[0], gaps=key[1], size=len(members), witnessed=witnessed
            )
        )
    return CensusReport(
        degree=degree,
        diameter_cap=diameter_cap,
        type_preserving=type_preserving,
        total_tuples=len(tuples),
        classes=tuple(records),
        ball_too_small=too_small,
    )
