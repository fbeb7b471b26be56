"""Generalized augmented links: crossing circles, slope ledgers, fillings.

An AugmentedLink keeps the untwisted base diagram (flat strands plus retained
half twists) together with structural data per crossing circle: how the
knotting strands pass through its disk (passages, in order along each
component), the counterclockwise rotation of the four strand ends around the
collapsed twist region (used to build the polyhedral nerve), and the parity
classes of its two plane punctures (used by the 3-punctured-sphere
certificate), read from the diagram's face colorings on first use.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, count, islice
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
    # punctures relative to each base component's curve; `augment` gives
    # each circle an `_EndSides`, which reads them on first use.
    end_sides: Mapping[str, tuple[int, int]] = field(default_factory=dict)
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


# -- end sides -----------------------------------------------------------------


class _EndSides(Mapping):
    """A circle's end sides, read on first use: component -> the colors of
    the circle's two lateral faces in the diagram's face colorings
    (`Diagram._face_colorings`), for each component whose coloring holds.
    A pickled copy is the plain dict."""

    __slots__ = ("_d", "_faces", "_sides")

    def __init__(self, d: Diagram, lat_n: int, lat_s: int):
        self._d, self._faces, self._sides = d, (lat_n, lat_s), None

    def _read(self) -> dict[str, tuple[int, int]]:
        if self._sides is None:
            color, bits = self._d._face_colorings
            north, south = (color[f] for f in self._faces)
            self._sides = {comp: (north >> j & 1, south >> j & 1) for comp, j in bits.items()}
            self._d = None
        return self._sides

    def __getitem__(self, comp):
        return self._read()[comp]

    def __iter__(self):
        return iter(self._read())

    def __len__(self):
        return len(self._read())

    def __repr__(self):
        return repr(self._read())

    def __reduce__(self):
        return dict, (self._read(),)


# -- the augmentation splice ---------------------------------------------------


def _check_regions(d: Diagram, regions: list[TwistRegion]) -> list[int]:
    """The region index of each crossing (-1 for none), after checking that
    the regions are two-strand ones on disjoint crossings of `d`, and that a
    region of two or more crossings has a first bigon edge pair at its first
    crossing."""
    region_of = [-1] * len(d.crossings)
    for idx, r in enumerate(regions):
        if r.strand_count != 2:
            raise UnsupportedLinkError(
                f"region on crossings {r.crossings} has {r.strand_count} strands; "
                "augment inserts crossing circles around two-strand regions only"
            )
        if not r.crossings:
            raise DiagramInvariantError(f"region C{idx + 1} has no crossings")
        for c in r.crossings:
            if not 0 <= c < len(d.crossings):
                raise DiagramInvariantError(f"region crossing {c} not in diagram")
            if region_of[c] >= 0:
                raise DiagramInvariantError(f"regions overlap at crossing {c}")
            region_of[c] = idx
        if len(r.crossings) > 1:
            if not r.bigon_edge_pairs:
                raise DiagramInvariantError(
                    f"region C{idx + 1} on crossings {r.crossings} has no bigon edge pair"
                )
            pair, cr = r.bigon_edge_pairs[0], d.crossings[r.crossings[0]]
            if len(pair) != 2 or pair[0] not in cr or pair[1] not in cr:
                raise DiagramInvariantError(
                    f"region C{idx + 1}: first bigon edge pair {pair} does not meet "
                    f"its first crossing {r.crossings[0]}"
                )
    return region_of


# A region's strand ends, (slot, side); see CrossingCircle.rotation.
_E0, _W0, _E1, _W1 = (0, "E"), (0, "W"), (1, "E"), (1, "W")


def augment(
    d: Diagram, regions: list[TwistRegion] | None = None
) -> tuple[AugmentedLink, dict[str, Fraction]]:
    """Insert a crossing circle at every region and strip the full twists.

    Returns the untwisted augmented link (half twists retained in the base)
    and the ledger of 1/t_i filling slopes that restore the input.  One pass
    over the regions reads each one's disk, lateral faces, rotation and
    frame and makes its circle, whose end sides are read on first use; one
    pass over each component's walk makes its base edges and its passages.
    """
    if regions is None:
        regions = detect_twist_regions(d)
    region_of = _check_regions(d, regions)
    crossings, twin, edge = d.crossings, d._twin, d._edge
    face_of = d._corner_walk[1]

    disk = [-1] * len(twin)  # the disk dart of slot s of region i -> 2i + s
    labels: list[str] = []
    circles: dict[str, CrossingCircle] = {}
    ledger: dict[str, Fraction] = {}
    for idx, r in enumerate(regions):
        cs = r.crossings
        x = 4 * cs[0]
        if len(cs) == 1:
            # The disk cuts the edges at slots 0 and 3: its slot 1 is not
            # counterclockwise-next from slot 0, and slot 0 runs under, so
            # the pattern sign is the chirality.  The lateral faces are those
            # of corners 0 and 2.  With no edge from the crossing to itself
            # its four darts leave it, and the turn from slot 0 meets them in
            # slot order.
            n0, n1 = x, x + 3
            lat_n, lat_s = face_of[x], face_of[x + 2]
            chirality = pattern_sign = -1
            rotation = [_W0, _E1, _E0, _W1] if len(set(crossings[cs[0]])) == 4 else None
        else:
            # The E-side darts (at the retained crossing) of the two edges
            # the disk cuts, as slot 0 and slot 1, and the local frame
            # handedness: +1 when slot 1 sits counterclockwise-next there.
            cr = crossings[cs[0]]
            e0, e1 = r.bigon_edge_pairs[0]
            n0, n1 = x + cr.index(e0), x + cr.index(e1)
            chirality = 1 if n1 & 3 == (n0 + 1) & 3 else -1
            # The first bigon is the face of the corner between the two
            # darts; each disk edge has it on one side, at corner n, or at
            # the corner before n, and the lateral face on the other.
            bigon = face_of[n0 if chirality == 1 else n1]
            lat_n, lat_s = face_of[n0], face_of[n1]
            if lat_n == bigon:
                lat_n = face_of[n0 - 1 if n0 & 3 else n0 + 3]
            if lat_s == bigon:
                lat_s = face_of[n1 - 1 if n1 & 3 else n1 + 3]
            # The braid letter sign is anchored at the crossing next to the
            # disk that is removed and reinserted.
            anchor = twin[n0] if r.half_twist else n0
            pattern_sign = chirality if anchor & 1 == 0 else -chirality
            # The darts whose edges leave the region.
            darts = [
                y for c in cs for y in range(4 * c, 4 * c + 4) if region_of[twin[y] >> 2] != idx
            ]
            rotation = None
            if len(darts) == 4:
                # Thread each disk edge's strand out of the region, both ways.
                ends = {}
                for y, end in ((n0, _E0), (twin[n0], _W0), (n1, _E1), (twin[n1], _W1)):
                    y ^= 2
                    while region_of[twin[y] >> 2] == idx:
                        y = twin[y] ^ 2
                    ends[y] = end
                if ends.keys() != set(darts):
                    raise DiagramInvariantError("region strand threading did not close")
                # Turn counterclockwise around the region from its least dart.
                y = min(darts)
                rotation = [ends[y]]
                met = {face_of[y]}
                while len(rotation) < 4:
                    y = y - 3 if y & 3 == 3 else y + 1
                    if region_of[twin[y] >> 2] == idx:
                        y = twin[y]
                    else:
                        rotation.append(ends[y])
                        met.add(face_of[y])
                if lat_n not in met or lat_s not in met:
                    raise DiagramInvariantError("lateral faces missing from region walk")
        if r.half_twist:
            # The retained half-twist crossing sits between the disk and the
            # frame anchor; one extra crossing mirrors the local frame.  It
            # stays in the base: -1 marks a kept crossing from here on.
            chirality, pattern_sign = -chirality, -pattern_sign
            region_of[cs[0]] = -1
        label = f"C{idx + 1}"
        labels.append(label)
        disk[n0], disk[n1] = 2 * idx, 2 * idx + 1
        circles[label] = CrossingCircle(
            label, 2, r.half_twist, r.handedness, rotation, _EndSides(d, lat_n, lat_s),
            chirality, pattern_sign,
        )
        if r.full_twists != 0:
            ledger[label] = Fraction(1, r.full_twists)

    # Each component's walk, as the darts it arrives at: the strand reaches
    # dart b from twin[b], and a disk there is passed W to E at b, E to W
    # at twin[b].  A base edge runs from a dart it leaves a kept crossing by
    # to the next kept dart it arrives at, so the walk is read from where it
    # last leaves a kept crossing, and the base edge it starts on is whole.
    # The base edge takes the input's edge id at its lesser end, and the
    # frame and rank of its passages count from there; a disk whose W side
    # faces that end has frame +1.
    label = [0] * len(twin)  # kept dart -> its base edge
    base_components: dict[Edge, str] = {}
    loops = list(d.loops)  # and the components whose crossings all went
    passages: dict[str, list[Passage]] = {}
    punctures = [0] * len(regions)
    for comp, walk in d._walks:
        i = len(walk) - 1
        while i >= 0 and region_of[walk[i] >> 2] >= 0:
            i -= 1
        run = []  # disk k passed W to E, or ~k passed E to W, on the base edge so far
        for b in walk[i + 1 :]:
            k = disk[twin[b]]
            if k >= 0:
                run.append(~k)
            k = disk[b]
            if k >= 0:
                run.append(k)
        plist: list[Passage] = []
        if i < 0:  # the strand became a loop
            loops.append(comp)
            for k in run:
                direction = 1 if k >= 0 else -1
                k = k if k >= 0 else ~k
                punctures[k >> 1] += 1
                plist.append(Passage(labels[k >> 1], k & 1, direction, None))
        else:
            tail = len(run)  # passages on the walk's last steps
            s = walk[i] ^ 2
            for b in walk[: i + 1]:
                k = disk[twin[b]]
                if k >= 0:
                    run.append(~k)
                k = disk[b]
                if k >= 0:
                    run.append(k)
                if region_of[b >> 2] >= 0:
                    continue
                # The base edge from s to b ends here.
                if s < b:
                    e = edge[s]
                    orient, rank = 1, 0
                else:
                    e = edge[b]
                    orient, rank = -1, len(run) - 1
                label[s] = label[b] = e
                base_components[e] = comp
                for k in run:
                    direction = 1 if k >= 0 else -1
                    k = k if k >= 0 else ~k
                    punctures[k >> 1] += 1
                    plist.append(
                        Passage(labels[k >> 1], k & 1, direction, e, direction * orient, rank)
                    )
                    rank += orient
                if run:
                    run = []
                s = b ^ 2
            if tail:  # they come last in walk order
                plist = plist[tail:] + plist[:tail]
        if plist:
            passages[comp] = plist

    loops.sort()
    kept = [tuple(label[4 * c : 4 * c + 4]) for c in range(len(crossings)) if region_of[c] < 0]
    base = Diagram(tuple(kept), base_components, None, tuple(loops))
    for comp in loops:
        passages.setdefault(comp, [])
    for idx, n in enumerate(punctures):
        if n != 2:
            raise DiagramInvariantError(
                f"circle {labels[idx]}: disk punctured {n} times, expected 2"
            )
    return AugmentedLink(base=base, passages=passages, circles=circles), ledger


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
    new_ids = count(edges[-1] + 1 if edges else 1)
    fresh = new_ids.__next__

    comp_of_new: dict[Edge, str] = dict(al.base.components)
    slot_component: dict[str, dict[int, str]] = {lab: {} for lab in al.circles}
    for comp, plist in al.passages.items():
        for p in plist:
            if p.circle in slot_component:
                slot_component[p.circle][p.slot] = comp

    # Each circle's tangle, with its W stub and its E stub per slot.  Every
    # stub is aliased to a piece below, so it needs no component.
    stubs: dict[str, dict[int, tuple[Edge, Edge]]] = {}
    for lab, circle in sorted(al.circles.items()):
        t = twists.get(lab)
        if t == 0:
            continue  # no crossings: its passages leave the strand uncut
        m = circle.strand_count
        # Braid positions run across the disk; a left-handed local frame
        # mirrors the assignment so the tangle glues back planarly.
        pos_to_slot = range(m) if circle.chirality == 1 else range(m - 1, -1, -1)
        strand = list(map(slot_component[lab].__getitem__, pos_to_slot))  # per position
        if t is None:
            w, e = _expand_circle(crossings, new_ids, comp_of_new, lab, strand)
        else:
            letter = circle.pattern_sign * circle.handedness * (1 if t >= 0 else -1)
            w = list(islice(new_ids, m))
            e = list(w)
            for i, _ in full_ribbon_braid(m, abs(t)):
                lo, ro = fresh(), fresh()
                crossings.append(braid_crossing(letter, e[i - 1], e[i], lo, ro))
                # The two strands swap positions at every letter.
                strand[i - 1], strand[i] = strand[i], strand[i - 1]
                comp_of_new[lo], comp_of_new[ro] = strand[i - 1], strand[i]
                e[i - 1], e[i] = lo, ro
        stubs[lab] = dict(zip(pos_to_slot, zip(w, e)))

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
            pieces = list(islice(new_ids, len(plist)))
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
                pieces = [e, *islice(new_ids, len(evs))]
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


def _expand_circle(crossings, new_ids, comp_of_new, lab: str, strand: list[str]):
    """Replace an unfilled circle by its PD loop crossing each strand twice.

    The circle's W arc descends across the strands passing over them; the E
    arc ascends passing under, which matches a round circle perpendicular to
    the projection plane.  `strand` is the component at each braid position.
    Returns the W stubs and the E stubs by position.
    """
    m = len(strand)
    fresh = new_ids.__next__
    loop = list(islice(new_ids, 2 * m))
    comp_of_new.update(dict.fromkeys(loop, lab))
    # Frame matched to the braid insertion: strands run downward in columns
    # (W end up), the circle's upper arc crosses over them left to right and
    # the lower arc returns under them.
    w, mids = [], []
    for p in range(m):
        w_stub, mid = fresh(), fresh()
        comp_of_new[mid] = strand[p]
        # Upper crossing at column p: strand (under) runs w_stub -> mid,
        # circle (over) runs loop[p] -> loop[p+1].  CCW from the incoming
        # under edge at the north: (N, W, S, E).
        crossings.append((w_stub, loop[p], mid, loop[p + 1]))
        w.append(w_stub)
        mids.append(mid)
    e = [0] * m
    for i in range(m):
        p = m - 1 - i  # the lower arc returns right to left
        e[p] = fresh()
        # Lower crossing at column p: circle (under) runs c_in -> c_out
        # leftward, strand (over) runs mid -> e_stub.  CCW from the incoming
        # under edge at the east: (E, N, W, S).
        crossings.append((loop[m + i], mids[p], loop[(m + i + 1) % (2 * m)], e[p]))
    return w, e
