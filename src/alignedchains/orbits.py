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
one orbit at finite scale.  The extension needs no distance search: the
spine is connected, so sending each off-spine neighbor to any unused
neighbor of its anchor's image keeps every distance.  `validate` on the
final map, which does not trust that argument, is the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .chains import canonicalize_tuple
from .trees import PartialIsometry, Tree, aligned_tuples, diametral_pair, geodesic


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
    ends = diametral_pair(t, x)
    if ends is None:
        raise ValueError("signature is defined for aligned tuples only")
    parity = lambda v: t.distance(0, v) % 2
    # Distinct aligned entries have one extremal pair; read it lowest id first.
    end_a, end_b = ends
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
    that is too small.  The off-spine neighbors are visited in ascending
    id, each taking the lowest unused neighbor of its anchor's image, with
    no distance search; the final map is then validated, so the returned
    isometry is checked independently of how it was built.  This is the
    map `extend_partial_isometry` builds from the same spine seed.  In
    type-preserving mode every displacement of the returned map is even.
    """
    sig_x, spine_x = _signature_data(t, x, type_preserving)
    sig_y, spine_y = _signature_data(t, y, type_preserving)
    if sig_x.class_key != sig_y.class_key:
        return WitnessResult("signature_mismatch", None)
    return _spine_witness(t, spine_x, spine_y, type_preserving)


def _spine_witness(
    t: Tree, spine_x: Sequence[int], spine_y: Sequence[int], type_preserving: bool
) -> WitnessResult:
    """Witness for two canonical spines of one signature class."""
    mapping = dict(zip(spine_x, spine_y))
    used = set(spine_y)
    # A tree has no cycles, so each off-spine neighbor has one spine anchor.
    off_spine = sorted(
        (w, v) for v in spine_x for w in t.adjacency[v] if w not in mapping
    )
    for w, anchor in off_spine:
        image = next((c for c in t.adjacency[mapping[anchor]] if c not in used), None)
        if image is None:
            return WitnessResult("ball_too_small", None)
        mapping[w] = image
        used.add(image)
    witness = PartialIsometry(mapping)
    witness.validate(t)
    if type_preserving and not witness.has_even_displacement(t):
        raise RuntimeError("type-preserving witness produced an odd displacement")
    return WitnessResult("ok", witness)


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
    against the bucket's first member.  Each tuple's signature and spine
    are computed once, and the witness works on the spines directly.

    The tuples are `aligned_tuples` restricted to the ball of radius
    diameter_cap + 1 about `root`, with spine length at most diameter_cap.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if diameter_cap < degree:
        raise ValueError("diameter cap below minimal spine length for the degree")
    if not 0 <= root < t.vertex_count:
        raise ValueError(f"root {root} is not a vertex of the tree")
    droot = t.distances_from(root)
    region = [v for v in t.vertices() if droot[v] <= diameter_cap + 1]
    tuples = aligned_tuples(t, degree + 1, vertices=region, max_length=diameter_cap)
    # key -> [representative spine, size, witnessed]; members are
    # witnessed as they arrive, so no member list is kept.
    classes: dict[tuple, list] = {}
    too_small = 0
    for tup in tuples:
        sig, spine = _signature_data(t, tup, type_preserving)
        entry = classes.setdefault(sig.class_key, [spine, 0, True])
        entry[1] += 1
        result = _spine_witness(t, entry[0], spine, type_preserving)
        if not result.ok:  # within one class only "ball_too_small"
            entry[2] = False
            too_small += 1

    def bucket_order(key: tuple) -> tuple:
        type_bit, gaps = key
        return (gaps, -1 if type_bit is None else type_bit)

    records = []
    for key in sorted(classes, key=bucket_order):
        _, count, witnessed = classes[key]
        records.append(
            OrbitClassRecord(type_bit=key[0], gaps=key[1], size=count, witnessed=witnessed)
        )
    return CensusReport(
        degree=degree,
        diameter_cap=diameter_cap,
        type_preserving=type_preserving,
        total_tuples=len(tuples),
        classes=tuple(records),
        ball_too_small=too_small,
    )
