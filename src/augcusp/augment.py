"""Generalized augmented links: crossing circles, slope ledgers, fillings.

An AugmentedLink keeps the untwisted base diagram (flat strands plus retained
half twists) together with structural data per crossing circle: how the
knotting strands pass through its disk (passages, in order along each
component), the counterclockwise rotation of the four strand ends around the
collapsed twist region (used to build the polyhedral nerve), and the parity
classes of its two plane punctures (used by the 3-punctured-sphere
certificate).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count
from operator import attrgetter

from .diagram import (
    Crossing,
    Diagram,
    Edge,
    TwistRegion,
    braid_crossing,
    detect_twist_regions,
    full_ribbon_braid,
)
from .errors import DiagramInvariantError, UnsupportedLinkError

Dart = tuple[int, str]  # (slot, side); side "E" points at the retained crossing


@dataclass(frozen=True)
class Passage:
    """One pass of a knotting strand through a crossing disk.

    direction is +1 when the component walk crosses the disk W to E; frame is
    +1 when the disk's W side faces the first base occurrence of `edge`, and
    rank orders multiple passages along the same base edge from that end.
    Bare loops carry edge None and use list order instead.
    """

    circle: str
    slot: int
    direction: int
    edge: Edge | None
    frame: int = 1
    rank: int = 0


@dataclass
class CrossingCircle:
    label: str
    strand_count: int
    half_twist: bool
    handedness: int
    # CCW cyclic order of the 2m strand-end darts around the collapsed
    # region, or None when the region swallows the whole diagram.
    rotation: list[Dart] | None
    # Parity class (0/1, global flip per component) of the two plane
    # punctures relative to each base component's curve.
    end_sides: dict[str, tuple[int, int]] = field(default_factory=dict)
    # Local frame handedness at the disk (+1 when the hole boundary reads
    # slot0-E, slot0-W, slot1-W, slot1-E counterclockwise) and the braid
    # letter sign that reproduces the removed twist pattern.
    chirality: int = 1
    pattern_sign: int = 1


@dataclass
class AugmentedLink:
    base: Diagram
    passages: dict[str, list[Passage]]
    circles: dict[str, CrossingCircle]

    def to_json(self) -> str:
        doc = {
            "base": json.loads(self.base.to_json()),
            "passages": {
                comp: [
                    [p.circle, p.slot, p.direction, p.edge, p.frame, p.rank]
                    for p in ps
                ]
                for comp, ps in sorted(self.passages.items())
            },
            "circles": {
                lab: {
                    "m": c.strand_count,
                    "half_twist": c.half_twist,
                    "handedness": c.handedness,
                    "rotation": c.rotation,
                    "end_sides": {k: list(v) for k, v in sorted(c.end_sides.items())},
                }
                for lab, c in sorted(self.circles.items())
            },
        }
        return json.dumps(doc, sort_keys=True)


def ledger_json(ledger: dict[str, Fraction]) -> str:
    """The 1/t ledger (cusp -> Fraction) as JSON, each slope written "p/q"."""
    return json.dumps(
        {k: f"{v.numerator}/{v.denominator}" for k, v in ledger.items()}, sort_keys=True
    )


# -- region analysis ----------------------------------------------------------


def _region_structure(d: Diagram, r: TwistRegion, idx: int, region_of: list[int]):
    """The disk darts, lateral faces, rotation and frame of region `idx`
    (`region_of`: the region index of each crossing, -1 for none)."""
    twin, face_of = d._twin, d._corner_walk[1]
    # The E-side darts (at the retained crossing) of the two original edges
    # the crossing disk cuts, as (slot 0, slot 1), and the local frame
    # handedness: +1 when slot1 sits counterclockwise-next from slot0 there.
    c1 = r.crossings[0]
    if r.crossing_count == 1:
        near = (4 * c1, 4 * c1 + 3)
    else:
        near = tuple(4 * c1 + d.crossings[c1].index(e) for e in r.bigon_edge_pairs[0])
    chirality = 1 if near[1] & 3 == (near[0] + 1) & 3 else -1

    # Lateral faces: beyond the slot-0 strand and beyond the slot-1 strand.
    if r.crossing_count == 1:
        lat_n = face_of[4 * c1]
        lat_s = face_of[4 * c1 + 2]
    else:
        # The first bigon is the face of the corner between the two darts;
        # each disk edge has it on one side, at corner x, or at the corner
        # before x, and the lateral face on the other.
        bigon = face_of[near[0] if chirality == 1 else near[1]]
        lat_n, lat_s = (
            face_of[x] if face_of[x] != bigon else face_of[x - 1 if x & 3 else x + 3]
            for x in near
        )

    # The darts whose edges leave the region.
    darts = [
        x for c in r.crossings for x in range(4 * c, 4 * c + 4) if region_of[twin[x] >> 2] != idx
    ]
    rotation = None
    if len(darts) == 4:
        if r.crossing_count == 1:
            x = 4 * c1
            ends = {x: (0, "W"), x + 2: (0, "E"), x + 3: (1, "W"), x + 1: (1, "E")}
        else:
            # Thread each disk edge's strand out of the region, both ways.
            ends = {}
            for slot, x in enumerate(near):
                for y, side in ((x, "E"), (twin[x], "W")):
                    y ^= 2
                    while region_of[twin[y] >> 2] == idx:
                        y = twin[y] ^ 2
                    ends[y] = (slot, side)
        if ends.keys() != set(darts):
            raise DiagramInvariantError("region strand threading did not close")
        # Turn counterclockwise around the region from its least dart.
        x = min(darts)
        cyc = [x]
        while len(cyc) < 4:
            x = x - 3 if x & 3 == 3 else x + 1
            if region_of[twin[x] >> 2] == idx:
                x = twin[x]
            else:
                cyc.append(x)
        rotation = list(map(ends.__getitem__, cyc))
        if {lat_n, lat_s}.difference(map(face_of.__getitem__, cyc)):
            raise DiagramInvariantError("lateral faces missing from region walk")

    # Twist pattern: the braid letter sign is anchored at the crossing
    # adjacent to the disk that gets removed and reinserted.
    pattern_anchor = r.crossings[1] if r.half_twist and r.crossing_count > 1 else c1
    anchor = near[0] if near[0] >> 2 == pattern_anchor else twin[near[0]]
    slot0_under = anchor & 1 == 0
    pattern_sign = chirality * (1 if slot0_under else -1)
    if r.half_twist:
        # The retained half-twist crossing sits between the disk and the
        # frame anchor; one extra crossing mirrors the local frame.
        chirality, pattern_sign = -chirality, -pattern_sign

    return {
        "rotation": rotation,
        "laterals": (lat_n, lat_s),
        "near": near,
        "chirality": chirality,
        "pattern_sign": pattern_sign,
    }


def _face_colorings(d: Diagram) -> tuple[list[int], dict[str, int]]:
    """2-colorings of faces by crossing parity with each component's curve.

    One search over the faces, the runs of `Diagram._corner_walk`, carries
    a bit per component.  Returns the bits of each face (-1 where the search
    did not reach), and the bit position of each component whose coloring
    holds: not one whose curve touches a face on both sides or whose
    parities conflict, and none when the faces are not connected.
    """
    labels = sorted(set(d.components.values()))
    bit = {lab: 1 << j for j, lab in enumerate(labels)}
    starts, face_of, walk = d._corner_walk
    if len(starts) < 2:  # no crossings, so no faces
        return [], {}
    flips = list(map(bit.__getitem__, map(d.components.__getitem__, d._edge)))  # per dart
    color = [0] + [-1] * (len(starts) - 2)
    bad = 0
    stack = [0]
    while stack:
        i = stack.pop()
        ci = color[i]
        for x in walk[starts[i] : starts[i + 1]]:
            x = x - 3 if x & 3 == 3 else x + 1  # its next dart: face_of[x] is across
            flip = flips[x]
            j = face_of[x]
            if j == i:
                bad |= flip  # the curve touches the face on both sides
            elif color[j] >= 0:
                bad |= color[j] ^ ci ^ flip
            else:
                color[j] = ci ^ flip
                stack.append(j)
    if -1 in color:
        return color, {}
    return color, {lab: j for j, lab in enumerate(labels) if not bad >> j & 1}


# -- the augmentation splice ---------------------------------------------------


def _check_regions(d: Diagram, regions: list[TwistRegion]) -> list[int]:
    """The region index of each crossing (-1 for none), after checking that
    the regions are two-strand ones on disjoint crossings of `d`."""
    region_of = [-1] * len(d.crossings)
    for idx, r in enumerate(regions):
        if r.strand_count != 2:
            raise UnsupportedLinkError(
                f"region on crossings {r.crossings} has {r.strand_count} strands; "
                "augment inserts crossing circles around two-strand regions only"
            )
        for c in r.crossings:
            if not 0 <= c < len(d.crossings):
                raise DiagramInvariantError(f"region crossing {c} not in diagram")
            if region_of[c] >= 0:
                raise DiagramInvariantError(f"regions overlap at crossing {c}")
            region_of[c] = idx
    return region_of


def augment(
    d: Diagram, regions: list[TwistRegion] | None = None
) -> tuple[AugmentedLink, dict[str, Fraction]]:
    """Insert a crossing circle at every region and strip the full twists.

    Returns the untwisted augmented link (half twists retained in the base)
    and the ledger of 1/t_i filling slopes that restore the input.
    """
    if regions is None:
        regions = detect_twist_regions(d)
    region_of = _check_regions(d, regions)
    color, bits = _face_colorings(d)

    infos = [
        (f"C{idx + 1}", r, _region_structure(d, r, idx, region_of))
        for idx, r in enumerate(regions)
    ]
    # A half twist keeps its first crossing in the base.
    removed = {c for r in regions for c in r.crossings[1 if r.half_twist else 0 :]}
    kept = [c for c in range(len(d.crossings)) if c not in removed]

    # One walk per base edge, from its lesser kept dart (kept crossings in
    # order, slots 0-3) through the removed crossings to its other end.  The
    # base edge is labelled with the edge at its start, and each passage's
    # frame and rank on it are read off the same walk.
    twin, edge = d._twin, d._edge
    disk: list[tuple[str, int] | None] = [None] * len(twin)  # dart -> (circle, slot)
    for lab, _, st in infos:
        disk[st["near"][0]], disk[st["near"][1]] = (lab, 0), (lab, 1)
    label = [0] * len(twin)  # kept dart -> its base edge
    base_components: dict[Edge, str] = {}
    on_edge: dict[int, tuple[Edge, int, int]] = {}  # E-side dart -> (edge, frame, rank)
    for x in chain.from_iterable(range(4 * c, 4 * c + 4) for c in kept):
        if label[x]:
            continue
        e = label[x] = edge[x]
        base_components[e] = d.components[e]
        a, rank = x, 0
        while True:
            b = twin[a]
            # The edge from dart a to dart b: a disk whose E side is at b
            # has its W side toward the start (frame +1).
            if disk[a]:
                on_edge[a] = (e, -1, rank)
                rank += 1
            if disk[b]:
                on_edge[b] = (e, 1, rank)
                rank += 1
            if b >> 2 not in removed:
                break
            a = b ^ 2
        label[b] = e

    # The input's own loops, and the components whose crossings all went:
    # a component that meets a kept crossing has every base edge of its
    # strand at a kept crossing.
    loop_comps = sorted(
        set(d.components.values()).difference(base_components.values()).union(d.loops)
    )
    base = Diagram(
        tuple(tuple(label[4 * c : 4 * c + 4]) for c in kept),
        base_components,
        None,
        tuple(loop_comps),
    )

    # Walk the original components, recording passages in order.
    passages: dict[str, list[Passage]] = {}
    for comp, walk in d._walks:
        plist: list[Passage] = []
        for b in walk:  # the strand runs from twin[b] to b
            x = twin[b]  # an edge missing from on_edge: the strand became a loop
            if disk[x]:
                plist.append(Passage(*disk[x], -1, *on_edge.get(x, (None,))))
            if disk[b]:
                plist.append(Passage(*disk[b], 1, *on_edge.get(b, (None,))))
        if plist:
            passages[comp] = plist

    for comp in base.loops:
        passages.setdefault(comp, [])

    circles: dict[str, CrossingCircle] = {}
    ledger: dict[str, Fraction] = {}
    for label, r, st in infos:
        lat_n, lat_s = st["laterals"]
        north, south = color[lat_n], color[lat_s]
        end_sides = {comp: (north >> j & 1, south >> j & 1) for comp, j in bits.items()}
        circles[label] = CrossingCircle(
            label=label,
            strand_count=2,
            half_twist=r.half_twist,
            handedness=r.handedness,
            rotation=st["rotation"],
            end_sides=end_sides,
            chirality=st["chirality"],
            pattern_sign=st["pattern_sign"],
        )
        if r.full_twists != 0:
            ledger[label] = Fraction(1, r.full_twists)

    al = AugmentedLink(base=base, passages=passages, circles=circles)
    _validate_augmented(al)
    return al, ledger


def _validate_augmented(al: AugmentedLink) -> None:
    counts: dict[str, int] = {lab: 0 for lab in al.circles}
    for plist in al.passages.values():
        for p in plist:
            counts[p.circle] += 1
    for lab, c in al.circles.items():
        if counts[lab] != c.strand_count:
            raise DiagramInvariantError(
                f"circle {lab}: disk punctured {counts[lab]} times, "
                f"expected {c.strand_count}"
            )


# -- filling -------------------------------------------------------------------


def apply_filling(al: AugmentedLink, ledger: dict[str, Fraction]) -> Diagram:
    """Reinsert t full twists per 1/t ledger entry and delete those circles.

    The ledger maps circle labels to slopes; a slope that is not 1/t, 0
    included, is refused.  Circles without a ledger entry stay in the result
    and are expanded into PD crossings (the circle's loop crossing every
    strand of its disk twice).
    """
    twists: dict[str, int] = {}
    for cusp, slope in ledger.items():
        if cusp not in al.circles:
            raise DiagramInvariantError(f"ledger names unknown cusp {cusp!r}")
        if abs(slope.numerator) != 1:
            raise DiagramInvariantError(
                f"slope {slope} on a crossing circle is not 1/t; combinatorial "
                "twisting is undefined (use geometric tools)"
            )
        twists[cusp] = slope.denominator * slope.numerator
    return _fill(al, twists)


def untwist_retwist_roundtrip(
    d: Diagram, regions: list[TwistRegion] | None = None
) -> Diagram:
    """augment followed by the inverse filling; isomorphic to the input."""
    return _refill(*augment(d, regions))


def _refill(al: AugmentedLink, ledger: dict[str, Fraction]) -> Diagram:
    """The diagram that `augment` returned (al, ledger) for: every circle
    filled with the twists of its ledger entry, or none."""
    twists = {lab: 0 for lab in al.circles}
    for cusp, slope in ledger.items():
        twists[cusp] = slope.denominator * slope.numerator
    return _fill(al, twists)


def _fill(al: AugmentedLink, twists: dict[str, int]) -> Diagram:
    crossings: list[Crossing] = list(al.base.crossings)
    edges, darts = al.base._edges, al.base._darts
    fresh = count(edges[-1] + 1 if edges else 1).__next__

    comp_of_new: dict[Edge, str] = dict(al.base.components)
    slot_component: dict[tuple[str, int], str] = {}
    for comp, plist in al.passages.items():
        for p in plist:
            slot_component[(p.circle, p.slot)] = comp

    stubs: dict[str, dict[int, tuple[Edge, Edge]]] = {}
    for lab in sorted(al.circles):
        circle = al.circles[lab]
        m = circle.strand_count
        if lab in twists:
            t = twists[lab]
            if t == 0:
                continue  # no crossings: its passages leave the strand uncut
            letter = circle.pattern_sign * circle.handedness * (1 if t >= 0 else -1)
            # Braid positions run across the disk; a left-handed local frame
            # mirrors the assignment so the tangle glues back planarly.
            pos_to_slot = (
                list(range(m)) if circle.chirality == 1 else list(range(m - 1, -1, -1))
            )
            w_stubs = [fresh() for _ in range(m)]
            current = list(w_stubs)
            for w, j in zip(w_stubs, pos_to_slot):
                comp_of_new[w] = slot_component[(lab, j)]
            for i, _ in full_ribbon_braid(m, abs(t)):
                left, right = current[i - 1], current[i]
                lo, ro = fresh(), fresh()
                crossings.append(braid_crossing(letter, left, right, lo, ro))
                # The two strands swap positions at every letter.
                comp_of_new[lo], comp_of_new[ro] = comp_of_new[right], comp_of_new[left]
                current[i - 1], current[i] = lo, ro
            stubs[lab] = {
                pos_to_slot[p]: (w_stubs[p], current[p]) for p in range(m)
            }
        else:
            stubs[lab] = _expand_circle(
                crossings, fresh, al, lab, comp_of_new, slot_component
            )

    # The passages through filled circles cut each strand into pieces, and
    # each cut joins the pieces on its two sides to its tangle's stubs: each
    # stub continues exactly one piece.
    alias: dict[Edge, Edge] = {}  # stub -> its piece
    loops_left: list[str] = []
    for comp in sorted(al.passages):
        plist = [p for p in al.passages[comp] if p.circle in stubs]
        if comp in al.base.loops:
            if not plist:
                loops_left.append(comp)
                continue
            pieces = [fresh() for _ in range(len(plist))]
            for piece in pieces:
                comp_of_new[piece] = comp
            for k, p in enumerate(plist):
                w_stub, e_stub = stubs[p.circle][p.slot]
                before, after = pieces[k - 1], pieces[k]
                if p.direction == 1:
                    alias[w_stub], alias[e_stub] = before, after
                else:
                    alias[e_stub], alias[w_stub] = before, after
        else:
            by_edge: dict[Edge, list[Passage]] = {}
            for p in plist:
                by_edge.setdefault(p.edge, []).append(p)
            for e, evs in by_edge.items():
                if len(evs) > 1:
                    evs.sort(key=attrgetter("rank"))
                far = darts[2 * bisect_left(edges, e) + 1]  # occurrence 1 of e
                pieces = [e] + [fresh() for _ in range(len(evs))]
                cr = list(crossings[far >> 2])
                cr[far & 3] = pieces[-1]
                crossings[far >> 2] = tuple(cr)
                for piece in pieces[1:]:
                    comp_of_new[piece] = comp
                for k, p in enumerate(evs):
                    w_stub, e_stub = stubs[p.circle][p.slot]
                    if p.frame == 1:  # W side faces occurrence 0
                        alias[w_stub], alias[e_stub] = pieces[k], pieces[k + 1]
                    else:
                        alias[e_stub], alias[w_stub] = pieces[k], pieces[k + 1]

    resolved = [alias.get(e, e) for e in chain.from_iterable(crossings)]
    ids = sorted(set(resolved))
    numbers = range(1, len(ids) + 1)
    compact = dict(zip(ids, numbers))
    slots = iter(map(compact.__getitem__, resolved))
    final = tuple(zip(slots, slots, slots, slots))  # four slots per crossing
    components = dict(zip(numbers, map(comp_of_new.__getitem__, ids)))
    return Diagram(final, components, None, tuple(sorted(loops_left)))


def _expand_circle(
    crossings, fresh, al: AugmentedLink, lab: str, comp_of_new, slot_component
):
    """Replace an unfilled circle by its PD loop crossing each strand twice.

    The circle's W arc descends across the strands passing over them; the E
    arc ascends passing under, which matches a round circle perpendicular to
    the projection plane.  A left-handed disk frame mirrors the picture.
    Returns the (W stub, E stub) pair per slot.
    """
    circle = al.circles[lab]
    m = circle.strand_count
    mirror = circle.chirality == -1
    pos_to_slot = list(range(m)) if not mirror else list(range(m - 1, -1, -1))
    loop = [fresh() for _ in range(2 * m)]
    for seg in loop:
        comp_of_new[seg] = lab
    # Frame matched to the braid insertion: strands run downward in columns
    # (W end up), the circle's upper arc crosses over them left to right and
    # the lower arc returns under them.
    mids = {}
    out = {}
    for p in range(m):
        j = pos_to_slot[p]
        w_stub, mid = fresh(), fresh()
        comp_of_new[w_stub] = slot_component[(lab, j)]
        comp_of_new[mid] = slot_component[(lab, j)]
        # Upper crossing at column p: strand (under) runs w_stub -> mid,
        # circle (over) runs loop[p] -> loop[p+1].  CCW from the incoming
        # under edge at the north: (N, W, S, E).
        crossings.append((w_stub, loop[p], mid, loop[p + 1]))
        mids[j] = mid
        out[j] = [w_stub, None]
    for i in range(m):
        p = m - 1 - i  # the lower arc returns right to left
        j = pos_to_slot[p]
        e_stub = fresh()
        comp_of_new[e_stub] = slot_component[(lab, j)]
        c_in = loop[m + i]
        c_out = loop[(m + i + 1) % (2 * m)]
        # Lower crossing at column p: circle (under) runs c_in -> c_out
        # leftward, strand (over) runs mid -> e_stub.  CCW from the incoming
        # under edge at the east: (E, N, W, S).
        crossings.append((c_in, mids[j], c_out, e_stub))
        out[j][1] = e_stub
    return {j: tuple(v) for j, v in out.items()}
