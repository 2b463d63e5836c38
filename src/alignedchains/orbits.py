"""Finite invariants that separate aligned tuples up to tree symmetry.

An aligned tuple lies on a segment, so up to the symmetries of a regular
tree it is determined by the gap pattern between consecutive points and,
when only even-displacement (type-preserving) maps are allowed, by the
bipartition class of its endpoint.  Both data are canonicalized under
reading the segment from either end; reversing flips the endpoint type by
the parity of the total length, because segment ends at odd distance sit
in opposite bipartition classes.  Positions are indices on the spine, and
the bipartition class of v is the parity of depth[v] + depth[0] for any
one distance row `depth`, so a census reads its root's row and no other.

Witnesses are explicit partial isometries built spine-to-spine and then
extended one step outward, so a successful witness certifies membership in
one orbit at finite scale.  The extension needs no distance search: the
spine is connected, so sending each off-spine neighbor to any unused
neighbor of its anchor's image keeps every distance.  The certificate,
which does not trust that argument, is edge-local and reads no distance
row: the map is injective, its domain is connected (the spine is a path
and every other domain vertex has a spine neighbor), and every domain edge
goes to an edge.  That suffices on a tree: a connected vertex set is
convex, so the geodesic between two domain vertices stays in the domain;
its image is a walk whose steps are edges and, by injectivity, never
backtracks; and a walk without backtracking in a tree is the geodesic
between its ends (Serre, *Trees*, I.2).  `PartialIsometry.validate`
checks the same maps by all pairwise distances and stays the general test.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from .chains import canonicalize_tuple
from .trees import PartialIsometry, Tree, aligned_spines, diametral_pair, geodesic


class CertificateError(RuntimeError):
    """A witness broke its own certificate: an internal invariant failed,
    not the input."""


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


def _spine_signature(
    tup: Sequence[int],
    spine: Sequence[int],
    depth: Sequence[int],
    type_preserving: bool,
) -> tuple[AlignedSignature, Sequence[int]]:
    """Signature of an aligned tuple with distinct entries, plus its spine
    in canonical orientation.

    `spine` is the geodesic between the tuple's extremal pair, lowest id
    first, and `depth` is any one distance row of the tree.
    """
    index = [spine.index(v) for v in tup]
    order_f = tuple(sorted(range(len(tup)), key=index.__getitem__))
    pos_f = [index[k] for k in order_f]
    gaps_f = tuple(pos_f[m + 1] - pos_f[m] for m in range(len(pos_f) - 1))
    gaps_r = gaps_f[::-1]
    type_f = (depth[spine[0]] + depth[0]) % 2
    type_r = (type_f + len(spine) - 1) % 2

    if type_preserving:
        use_forward = (type_f, gaps_f) <= (type_r, gaps_r)
    else:
        use_forward = gaps_f <= gaps_r
    if use_forward:
        chosen_type, chosen_gaps, order = type_f, gaps_f, order_f
    else:
        chosen_type, chosen_gaps, order = type_r, gaps_r, order_f[::-1]
        spine = spine[::-1]
    sig = AlignedSignature(
        chosen_type if type_preserving else None,
        chosen_gaps,
        canonicalize_tuple(order)[1],
    )
    return sig, spine


def _signature_data(
    t: Tree, tup: Sequence[int], type_preserving: bool
) -> tuple[AlignedSignature, Sequence[int]]:
    """Signature plus the spine geodesic in its canonical orientation."""
    x = tuple(tup)
    if len(set(x)) != len(x):
        raise ValueError("signature needs pairwise distinct entries")
    ends = diametral_pair(t, x)
    if ends is None:
        raise ValueError("signature is defined for aligned tuples only")
    return _spine_signature(
        x, geodesic(t, *ends), t.distances_from(0), type_preserving
    )


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
    no distance search.  The final map is then certified edge by edge,
    independently of how it was built: it must be injective and send every
    edge of its domain to an edge.  Its domain, the spine plus the spine's
    neighbors, is connected, and on a connected domain of a tree those two
    checks prove every distance is kept.  This is the map
    `extend_partial_isometry` builds from the same spine seed.  In
    type-preserving mode every displacement of the returned map is even.
    A broken certificate raises `CertificateError`.
    """
    sig_x, spine_x = _signature_data(t, x, type_preserving)
    sig_y, spine_y = _signature_data(t, y, type_preserving)
    if sig_x.class_key != sig_y.class_key:
        return WitnessResult("signature_mismatch", None)
    return _spine_witness(t, spine_x, spine_y, type_preserving, t.distances_from(0))


def _spine_witness(
    t: Tree,
    spine_x: Sequence[int],
    spine_y: Sequence[int],
    type_preserving: bool,
    depth: Sequence[int],
) -> WitnessResult:
    """Witness for two canonical spines of one signature class; `depth` is
    any one distance row, which gives displacement parities."""
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
    _certify_spine_map(t, spine_x, mapping)
    # d(a, b) and depth[a] + depth[b] have the same parity on a tree.
    if type_preserving and any((depth[a] + depth[b]) % 2 for a, b in mapping.items()):
        raise CertificateError("type-preserving witness produced an odd displacement")
    return WitnessResult("ok", PartialIsometry(mapping))


def _certify_spine_map(t: Tree, spine: Sequence[int], mapping: dict[int, int]) -> None:
    """Raise CertificateError unless `mapping` is an isometry of its domain,
    checked edge by edge in O(k * degree) without a distance row.

    The domain must hold the path `spine` and otherwise only neighbors of
    spine vertices, which makes it connected; then injectivity plus every
    domain edge going to an edge proves the map distance-preserving.
    """
    adjacency = t.adjacency
    if len(set(mapping.values())) != len(mapping):
        raise CertificateError("witness certificate: the map is not injective")
    if not spine or any(v not in mapping for v in spine):
        raise CertificateError("witness certificate: the spine is not in the domain")
    for a, b in zip(spine, spine[1:]):
        if b not in adjacency[a]:
            raise CertificateError(
                f"witness certificate: spine vertices {a} and {b} are not adjacent"
            )
    on_spine = set(spine)
    for w in mapping:
        if w not in on_spine and on_spine.isdisjoint(adjacency[w]):
            raise CertificateError(
                f"witness certificate: domain vertex {w} has no spine neighbor"
            )
    for a, image_a in mapping.items():
        targets = adjacency[image_a]
        for b in adjacency[a]:
            if b in mapping and mapping[b] not in targets:
                raise CertificateError(
                    f"witness certificate: edge ({a}, {b}) goes to the non-edge "
                    f"({image_a}, {mapping[b]})"
                )


@dataclass(frozen=True)
class OrbitClassRecord:
    type_bit: int | None
    gaps: tuple[int, ...]
    size: int
    witnessed: bool

    def to_record(self) -> dict:
        return asdict(self)


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

    The tuples and their spines come from `aligned_spines` restricted to
    the ball of radius diameter_cap + 1 about `root`, with spine length at
    most diameter_cap, taken in sorted order so each bucket's first member
    is its lowest tuple.  Signatures are read off those spines, with types
    from the root's distance row, and each witness works on the spines
    directly and is certified edge by edge (see `orbit_witness`).  The
    root's row is the only distance row the census reads, so its memory
    scales with the ball, not with the square of the tree.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if diameter_cap < degree:
        raise ValueError("diameter cap below minimal spine length for the degree")
    if not 0 <= root < t.vertex_count:
        raise ValueError(f"root {root} is not a vertex of the tree")
    droot = t.distances_from(root)
    region = [v for v in t.vertices() if droot[v] <= diameter_cap + 1]
    tuples = sorted(
        aligned_spines(t, degree + 1, vertices=region, max_length=diameter_cap)
    )
    # key -> [representative spine, size, witnessed]; members are
    # witnessed as they arrive, so no member list is kept.
    classes: dict[tuple, list] = {}
    too_small = 0
    for tup, walk in tuples:
        sig, spine = _spine_signature(tup, walk, droot, type_preserving)
        entry = classes.setdefault(sig.class_key, [spine, 0, True])
        entry[1] += 1
        result = _spine_witness(t, entry[0], spine, type_preserving, droot)
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
