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
The census and the witnesses compare only this (type, gaps) class key,
read straight off each tuple's spine; `aligned_signature`, the public
form, adds the sign of sorting the tuple into canonical spine order.

Witnesses are explicit partial isometries built spine-to-spine and then
extended one step outward, so a successful witness certifies membership in
one orbit at finite scale.  The extension needs no distance search: the
spine is connected, so sending each off-spine neighbor to any unused
neighbor of its anchor's image keeps every distance.  The certificate,
which does not trust that argument, is edge-local, reads no distance row
and comes in two halves.  The domain half depends only on the spine the
witness starts from: the spine is a path, the domain (the spine, then its
off-spine neighbors) repeats no vertex, and every off-spine vertex has a
spine neighbor, so the domain is connected.  It is checked once, when that
spine's frame is built, and the frame keeps the domain, each off-spine
vertex's anchor and every tree edge between domain vertices.  The image
half is checked for each target spine: the images are pairwise distinct
and every frame edge goes to an edge.  Together they suffice on a tree: a
connected vertex set is convex, so the geodesic between two domain
vertices stays in the domain; its image is a walk whose steps are edges
and, by injectivity, never backtracks; and a walk without backtracking in
a tree is the geodesic between its ends (Serre, *Trees*, I.2).  Every
member of a census class is witnessed from the class representative's
spine.  One census walk serves both modes, so it certifies each
representative spine's frame once across modes and each distinct map's
images once.  `PartialIsometry.validate` checks the same maps by all
pairwise distances and stays the general test.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import islice
from typing import Sequence

from .chains import canonicalize_tuple
from .limits import DEFAULT_DIM_CAP, CapExceeded
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


def _spine_readings(
    tup: Sequence[int], spine: Sequence[int], depth: Sequence[int]
) -> tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]]:
    """(type, gaps) of an aligned tuple with distinct entries, read from
    `spine[0]` and then from the other end.

    `spine` is the geodesic between the tuple's extremal pair, lowest id
    first, and `depth` is any one distance row of the tree.
    """
    pos = sorted(map(spine.index, tup))
    gaps = tuple(b - a for a, b in zip(pos, pos[1:]))
    type_f = (depth[spine[0]] + depth[0]) % 2
    return (type_f, gaps), ((type_f + len(spine) - 1) % 2, gaps[::-1])


def _spine_signature(
    readings: tuple[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]],
    spine: Sequence[int],
    type_preserving: bool,
) -> tuple[tuple[int | None, tuple[int, ...]], Sequence[int]]:
    """Class key (type, gaps) in one mode from the two readings
    (`_spine_readings`), plus the spine in that mode's canonical
    orientation; the full mode drops the type."""
    forward, reverse = readings
    if not type_preserving:
        forward, reverse = (None, forward[1]), (None, reverse[1])
    if forward <= reverse:
        return forward, spine
    return reverse, spine[::-1]


def _signature_data(
    t: Tree, tup: Sequence[int], type_preserving: bool
) -> tuple[tuple[int | None, tuple[int, ...]], Sequence[int]]:
    """Class key plus the spine geodesic in its canonical orientation."""
    x = tuple(tup)
    if len(set(x)) != len(x):
        raise ValueError("signature needs pairwise distinct entries")
    ends = diametral_pair(t, x)
    if ends is None:
        raise ValueError("signature is defined for aligned tuples only")
    spine = geodesic(t, *ends)
    readings = _spine_readings(x, spine, t.rooted.depth)
    return _spine_signature(readings, spine, type_preserving)


def aligned_signature(
    t: Tree, tup: Sequence[int], type_preserving: bool = True
) -> AlignedSignature:
    """Reversal-canonical signature of an aligned tuple with distinct entries."""
    x = tuple(tup)
    (type_bit, gaps), spine = _signature_data(t, x, type_preserving)
    order = sorted(range(len(x)), key=lambda k: spine.index(x[k]))
    return AlignedSignature(type_bit, gaps, canonicalize_tuple(tuple(order))[1])


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
    that is too small.  The domain, the spine of x and then its off-spine
    neighbors in ascending id, is x's frame (`_spine_frame`), whose half of
    the certificate is checked when it is built.  The images are the spine
    of y and then, for each off-spine neighbor, the lowest unused neighbor
    of its anchor's image, found with no distance search; their half of the
    certificate (`_frame_images`) is injectivity and every frame edge going
    to an edge.  This is the map `extend_partial_isometry` builds from the
    same spine seed, and the census builds it by the same routine.  In
    type-preserving mode every displacement of the returned map is even.
    A broken certificate raises `CertificateError`.
    """
    key_x, spine_x = _signature_data(t, x, type_preserving)
    key_y, spine_y = _signature_data(t, y, type_preserving)
    if key_x != key_y:
        return WitnessResult("signature_mismatch", None)
    frame = _spine_frame(t, spine_x)
    images = _frame_images(t, frame, spine_y, type_preserving, t.rooted.depth)
    if images is None:
        return WitnessResult("ball_too_small", None)
    return WitnessResult("ok", PartialIsometry(dict(zip(frame.domain, images))))


@dataclass(frozen=True)
class _SpineFrame:
    """Domain of every witness out of one spine, with the domain half of
    its certificate already checked.

    `domain` is the spine and then the other domain vertices; `anchors[m]`
    is the spine index of a neighbor of domain[len(spine) + m]; `edges`
    holds every tree edge between two domain vertices as an index pair
    (i, j) with i < j.
    """

    domain: tuple[int, ...]
    anchors: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def _spine_frame(t: Tree, spine: Sequence[int]) -> _SpineFrame:
    """Frame whose domain is `spine`, then its off-spine neighbors in
    ascending id."""
    on_spine = set(spine)
    off_spine = sorted({w for v in spine for w in t.adjacency[v]} - on_spine)
    return _certified_frame(t, spine, off_spine)


def _certified_frame(
    t: Tree, spine: Sequence[int], off_spine: Sequence[int]
) -> _SpineFrame:
    """Raise CertificateError unless the spine is a path, the domain repeats
    no vertex and every off-spine vertex has a spine neighbor; then the
    domain is connected.  Edges are read from `t.adjacency`."""
    adjacency = t.adjacency
    if not spine:
        raise CertificateError("witness certificate: the spine is not in the domain")
    for a, b in zip(spine, spine[1:]):
        if b not in adjacency[a]:
            raise CertificateError(
                f"witness certificate: spine vertices {a} and {b} are not adjacent"
            )
    domain = (*spine, *off_spine)
    index = {v: i for i, v in enumerate(domain)}
    if len(index) != len(domain):
        raise CertificateError("witness certificate: the domain repeats a vertex")
    length = len(spine)
    anchors: list[int | None] = [None] * len(off_spine)
    edges = []
    for i, a in enumerate(domain):
        for b in adjacency[a]:
            j = index.get(b, -1)
            if j > i:
                edges.append((i, j))
                if i < length <= j:
                    anchors[j - length] = i
    if None in anchors:
        raise CertificateError(
            "witness certificate: domain vertex "
            f"{off_spine[anchors.index(None)]} has no spine neighbor"
        )
    return _SpineFrame(domain, tuple(anchors), tuple(edges))


def _frame_images(
    t: Tree,
    frame: _SpineFrame,
    spine_y: Sequence[int],
    type_preserving: bool,
    depth: Sequence[int],
) -> list[int] | None:
    """Certified images of the frame's domain for the canonical spine
    `spine_y` of one signature class, or None when some anchor's image has
    no unused neighbor left (the ball is too small).  `depth` is any one
    distance row, which gives displacement parities."""
    adjacency = t.adjacency
    images = list(spine_y)
    used = set(images)
    # A tree has no cycles, so each off-spine neighbor has one spine anchor.
    for anchor in frame.anchors:
        for image in adjacency[images[anchor]]:
            if image not in used:
                break
        else:
            return None
        images.append(image)
        used.add(image)
    _certify_images(t, frame, images)
    if type_preserving:
        # d(a, b) and depth[a] + depth[b] have the same parity on a tree.
        for a, b in zip(frame.domain, images):
            if (depth[a] + depth[b]) % 2:
                raise CertificateError(
                    "type-preserving witness produced an odd displacement"
                )
    return images


def _certify_images(t: Tree, frame: _SpineFrame, images: Sequence[int]) -> None:
    """Raise CertificateError unless `images`, one per domain vertex of the
    frame, are pairwise distinct and every frame edge goes to an edge."""
    domain = frame.domain
    if len(images) != len(domain):
        raise CertificateError(
            f"witness certificate: {len(images)} images for {len(domain)} domain vertices"
        )
    if len(set(images)) != len(images):
        raise CertificateError("witness certificate: the map is not injective")
    adjacency = t.adjacency
    for i, j in frame.edges:
        if images[j] not in adjacency[images[i]]:
            raise CertificateError(
                f"witness certificate: edge ({domain[i]}, {domain[j]}) goes to the "
                f"non-edge ({images[i]}, {images[j]})"
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
    modes: Sequence[bool],
    root: int = 0,
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> tuple[CensusReport, ...]:
    """Enumerate aligned tuples near the root once and, in each mode of
    `modes` (type-preserving flags, in report order), bucket them by
    signature and certify each bucket as one orbit by witnessing every
    member against the bucket's first member.  Returns one report per mode.

    The tuples and their spines come from `aligned_spines` restricted to
    the ball of radius diameter_cap + 1 about `root`, with spine length at
    most diameter_cap, taken in sorted order so each bucket's first member
    is its lowest tuple.  More than `dim_cap` of them raise `CapExceeded`
    before any is sorted or witnessed.  Each spine is read once from both
    ends, with types from the root's distance row, and each mode takes its
    key and orientation from those readings.  A bucket witnesses from the
    frame of its first member's spine; frames are kept by spine across
    modes, so each representative spine's domain half of the certificate
    is checked once.  Each member then costs its images and their half of
    the certificate (see `orbit_witness`, which takes the same path), except
    that a full-mode map with the same frame and oriented spine as the
    member's type-preserving map reuses the images (or the ball_too_small
    verdict) built for it, whose checks include all the full mode needs.
    A broken certificate raises `CertificateError` naming the mode, the
    degree, the class gaps and the representative and member tuples.  The
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
    spines = aligned_spines(t, degree + 1, vertices=region, max_length=diameter_cap)
    tuples = list(islice(spines, dim_cap + 1))
    if len(tuples) > dim_cap:
        raise CapExceeded(f"census tuples of degree {degree} passed the cap {dim_cap}")
    tuples.sort()
    frames: dict[tuple[int, ...], _SpineFrame] = {}
    # mode -> key -> [frame, size, witnessed, representative], with the
    # type-preserving mode first so the full mode can reuse its images;
    # members are witnessed as they arrive, so no member list is kept.
    classes: dict[bool, dict[tuple, list]] = {tp: {} for tp in (True, False) if tp in modes}
    too_small = dict.fromkeys(classes, 0)
    for tup, walk in tuples:
        readings = _spine_readings(tup, walk, droot)
        built = None  # (frame, spine, images) of the type-preserving witness
        for type_preserving, buckets in classes.items():
            key, spine = _spine_signature(readings, walk, type_preserving)
            entry = buckets.get(key)
            try:
                if entry is None:
                    frame = frames.get(spine)
                    if frame is None:
                        frame = frames[spine] = _spine_frame(t, spine)
                    entry = buckets[key] = [frame, 0, True, tup]
                if built is not None and built[0] is entry[0] and built[1] == spine:
                    images = built[2]
                else:
                    images = _frame_images(t, entry[0], spine, type_preserving, droot)
            except CertificateError as exc:
                mode = "type-preserving" if type_preserving else "full"
                rep = tup if entry is None else entry[3]
                raise CertificateError(
                    f"{exc} (in the {mode} census of degree {degree}: class gaps "
                    f"{key[1]}, representative {rep}, member {tup})"
                ) from exc
            if type_preserving:
                built = (entry[0], spine, images)
            entry[1] += 1
            if images is None:  # within one class only "ball_too_small"
                entry[2] = False
                too_small[type_preserving] += 1

    def bucket_order(key: tuple) -> tuple:
        type_bit, gaps = key
        return (gaps, -1 if type_bit is None else type_bit)

    reports = {}
    for type_preserving, buckets in classes.items():
        records = []
        for key in sorted(buckets, key=bucket_order):
            _, count, witnessed, _ = buckets[key]
            records.append(
                OrbitClassRecord(type_bit=key[0], gaps=key[1], size=count, witnessed=witnessed)
            )
        reports[type_preserving] = CensusReport(
            degree=degree,
            diameter_cap=diameter_cap,
            type_preserving=type_preserving,
            total_tuples=len(tuples),
            classes=tuple(records),
            ball_too_small=too_small[type_preserving],
        )
    return tuple(reports[tp] for tp in modes)
