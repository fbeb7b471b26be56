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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from .diagram import (
    Crossing,
    Diagram,
    Edge,
    TwistRegion,
    UnionFind,
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

    @property
    def knotting_components(self) -> list[str]:
        return sorted(self.passages)

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


class SlopeLedger:
    """Exact rational filling slopes per cusp, kept in lowest terms."""

    def __init__(self, entries: dict[str, Fraction] | None = None):
        self.entries: dict[str, Fraction] = {}
        for k, v in (entries or {}).items():
            self[k] = v

    def __setitem__(self, cusp: str, slope: Fraction) -> None:
        slope = Fraction(slope)
        if slope != 0:
            self.entries[cusp] = slope
        else:
            self.entries.pop(cusp, None)

    def __getitem__(self, cusp: str) -> Fraction:
        return self.entries[cusp]

    def __contains__(self, cusp: str) -> bool:
        return cusp in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, SlopeLedger) and self.entries == other.entries

    def compose(self, other: "SlopeLedger") -> "SlopeLedger":
        """Combine twist-type fillings: 1/s then 1/t acts as 1/(s + t)."""
        out = SlopeLedger(dict(self.entries))
        for cusp, slope in other.entries.items():
            if cusp not in out.entries:
                out[cusp] = slope
                continue
            a, b = out.entries[cusp], slope
            if abs(a.numerator) != 1 or abs(b.numerator) != 1:
                raise ValueError(
                    f"can only compose reciprocal-integer slopes, got {a}, {b}"
                )
            s = a.denominator * a.numerator
            t = b.denominator * b.numerator
            out[cusp] = Fraction(0) if s + t == 0 else Fraction(1, s + t)
        return out

    def negated(self) -> "SlopeLedger":
        return SlopeLedger({k: -v for k, v in self.entries.items()})

    def to_json(self) -> str:
        return json.dumps(
            {
                k: f"{v.numerator}/{v.denominator}"
                for k, v in sorted(self.entries.items())
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "SlopeLedger":
        doc = json.loads(text)
        out = SlopeLedger()
        for k, v in doc.items():
            num, den = v.split("/")
            out[k] = Fraction(int(num), int(den))
        return out


# -- region analysis ----------------------------------------------------------


def _region_structure(d: Diagram, r: TwistRegion, fm):
    twin = d._twin
    S = set(r.crossings)
    # The two original edges the crossing disk cuts, as (slot 0, slot 1), by
    # their E-side darts (at the retained crossing).
    c1 = r.crossings[0]
    if r.crossing_count == 1:
        ea, eb = d.crossings[c1][0], d.crossings[c1][3]
        near = (4 * c1, 4 * c1 + 3)
    else:
        ea, eb = r.bigon_edge_pairs[0]
        near = tuple(
            4 * c + s for e in (ea, eb) for c, s in d.occurrences()[e] if c == c1
        )

    # Lateral faces: beyond the slot-0 strand and beyond the slot-1 strand.
    if r.crossing_count == 1:
        lat_n = fm.corner_faces[4 * c1]
        lat_s = fm.corner_faces[4 * c1 + 2]
    else:
        # The first face along each disk edge that is not a bigon of the region.
        lat_n, lat_s = (
            next(
                (i for i in fm.edge_faces[e]
                 if not (fm.faces[i].sides == 2 and set(fm.faces[i].boundary) == {ea, eb})),
                None,
            )
            for e in (ea, eb)
        )
        if lat_n is None or lat_s is None:
            raise DiagramInvariantError("could not locate lateral faces of region")

    # The darts whose edges leave the region.
    darts = [
        x for c in sorted(S) for x in range(4 * c, 4 * c + 4) if twin[x] >> 2 not in S
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
                    while twin[y] >> 2 in S:
                        y = twin[y] ^ 2
                    ends[y] = (slot, side)
        if set(ends) != set(darts):
            raise DiagramInvariantError("region strand threading did not close")
        # Turn counterclockwise around the region from its least dart.
        cyc = [darts[0]]
        x = darts[0]
        while len(cyc) < 4:
            x = x - 3 if x & 3 == 3 else x + 1
            if twin[x] >> 2 in S:
                x = twin[x]
            else:
                cyc.append(x)
        rotation = [ends[x] for x in cyc]
        if {lat_n, lat_s} - {fm.corner_faces[x] for x in cyc}:
            raise DiagramInvariantError("lateral faces missing from region walk")

    # Local frame handedness: +1 when slot1 sits counterclockwise-next from
    # slot0 at the E-side crossing.
    chirality = 1 if near[1] & 3 == (near[0] + 1) & 3 else -1

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


def _face_colorings(d: Diagram, fm) -> tuple[dict[int, int], dict[str, int]]:
    """2-colorings of faces by crossing parity with each component's curve.

    One search over the faces carries a bit per component.  Returns the bits
    of each face, and the bit position of each component whose coloring
    holds: not one whose curve touches a face on both sides or whose
    parities conflict, and none when the faces are not connected.
    """
    labels = sorted(set(d.components.values()))
    bit = {lab: 1 << j for j, lab in enumerate(labels)}
    edge_faces = fm.edge_faces
    color = {0: 0}
    bad = 0
    stack = [0]
    while stack:
        i = stack.pop()
        for e in fm.faces[i].boundary:
            flip = bit[d.components[e]]
            f, g = edge_faces[e]
            j = g if f == i else f
            if j == i:
                bad |= flip  # the curve touches the face on both sides
            elif j in color:
                bad |= color[j] ^ color[i] ^ flip
            else:
                color[j] = color[i] ^ flip
                stack.append(j)
    if len(color) != len(fm.faces):
        return color, {}
    return color, {lab: j for j, lab in enumerate(labels) if not bad >> j & 1}


# -- the augmentation splice ---------------------------------------------------


def _check_regions(d: Diagram, regions: list[TwistRegion]) -> None:
    seen: set[int] = set()
    for r in regions:
        if r.strand_count != 2:
            raise UnsupportedLinkError(
                f"region on crossings {r.crossings} has {r.strand_count} strands; "
                "augment inserts crossing circles around two-strand regions only"
            )
        for c in r.crossings:
            if not 0 <= c < len(d.crossings):
                raise DiagramInvariantError(f"region crossing {c} not in diagram")
            if c in seen:
                raise DiagramInvariantError(f"regions overlap at crossing {c}")
            seen.add(c)


def augment(
    d: Diagram, regions: list[TwistRegion] | None = None
) -> tuple[AugmentedLink, SlopeLedger]:
    """Insert a crossing circle at every region and strip the full twists.

    Returns the untwisted augmented link (half twists retained in the base)
    and the ledger of 1/t_i filling slopes that restore the input.
    """
    if regions is None:
        regions = detect_twist_regions(d)
    _check_regions(d, regions)
    fm = d.face_map
    color, bits = _face_colorings(d, fm)

    infos = [
        (f"C{idx + 1}", r, _region_structure(d, r, fm)) for idx, r in enumerate(regions)
    ]
    # A half twist keeps its first crossing in the base.
    removed = {c for r in regions for c in r.crossings[1 if r.half_twist else 0 :]}

    uf = UnionFind()
    for c in removed:
        cr = d.crossings[c]
        uf.union(cr[0], cr[2])
        uf.union(cr[1], cr[3])

    survivors = [
        (ci, tuple(uf.find(e) for e in cr))
        for ci, cr in enumerate(d.crossings)
        if ci not in removed
    ]
    used_edges = {e for _, cr in survivors for e in cr}

    class_members: dict[Edge, list[Edge]] = {}
    for e in d.components:
        class_members.setdefault(uf.find(e), []).append(e)

    base_components: dict[Edge, str] = {}
    for rep in used_edges:
        base_components[rep] = d.components[class_members[rep][0]]
    # The input's own loops, and the components whose crossings all went.
    loop_comps = sorted(
        {
            d.components[members[0]]
            for rep, members in class_members.items()
            if rep not in used_edges
        }.union(d.loops)
    )

    base = Diagram(
        tuple(cr for _, cr in survivors),
        base_components,
        None,
        tuple(loop_comps),
    )
    # Each passage's frame and rank on its base edge, read off one walk of
    # that edge from its base occurrence 0 through the removed crossings.
    twin = d._twin
    disk = {x: (lab, slot) for lab, _, st in infos for slot, x in enumerate(st["near"])}
    on_edge: dict[int, tuple[Edge, int, int]] = {}  # E-side dart -> (edge, frame, rank)
    for rep, ((c, s), _) in base.occurrences().items():
        a = 4 * survivors[c][0] + s
        rank = 0
        while True:
            b = twin[a]
            # The edge from dart a to dart b: a disk whose E side is at b
            # has its W side toward occurrence 0 (frame +1).
            for x, frame in ((a, -1), (b, 1)):
                if x in disk:
                    on_edge[x] = (rep, frame, rank)
                    rank += 1
            if b >> 2 not in removed:
                break
            a = b ^ 2

    # Walk the original components, recording passages in order.
    passages: dict[str, list[Passage]] = {}
    for comp, walk in d._walks:
        plist: list[Passage] = []
        for b in walk:
            for x, direction in ((twin[b], -1), (b, 1)):
                if x in disk:
                    on = on_edge.get(x, (None,))  # None: the strand became a loop
                    plist.append(Passage(*disk[x], direction, *on))
        if plist:
            passages[comp] = plist

    for comp in base.loops:
        passages.setdefault(comp, [])

    circles: dict[str, CrossingCircle] = {}
    ledger = SlopeLedger()
    for label, r, st in infos:
        lat_n, lat_s = st["laterals"]
        end_sides = {
            comp: (color[lat_n] >> j & 1, color[lat_s] >> j & 1)
            for comp, j in bits.items()
        }
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


def apply_filling(al: AugmentedLink, ledger: SlopeLedger) -> Diagram:
    """Reinsert t full twists per 1/t ledger entry and delete those circles.

    Circles without a ledger entry stay in the result and are expanded into
    PD crossings (the circle's loop crossing every strand of its disk twice).
    """
    twists: dict[str, int] = {}
    for cusp, slope in ledger.entries.items():
        if cusp not in al.circles:
            raise DiagramInvariantError(f"ledger names unknown cusp {cusp!r}")
        if abs(slope.numerator) != 1:
            raise DiagramInvariantError(
                f"slope {slope} on a crossing circle is not 1/t; combinatorial "
                "twisting is undefined (use geometric tools)"
            )
        twists[cusp] = slope.denominator * slope.numerator
    return _fill(al, twists, expand_rest=True)


def untwist_retwist_roundtrip(
    d: Diagram, regions: list[TwistRegion] | None = None
) -> Diagram:
    """augment followed by the inverse filling; isomorphic to the input."""
    return _refill(*augment(d, regions))


def _refill(al: AugmentedLink, ledger: SlopeLedger) -> Diagram:
    """The diagram that `augment` returned (al, ledger) for: every circle
    filled with the twists of its ledger entry, or none."""
    twists = {lab: 0 for lab in al.circles}
    for cusp, slope in ledger.entries.items():
        twists[cusp] = slope.denominator * slope.numerator
    return _fill(al, twists, expand_rest=False)


def _fill(al: AugmentedLink, twists: dict[str, int], expand_rest: bool) -> Diagram:
    crossings: list[Crossing] = list(al.base.crossings)
    occ = al.base.occurrences()
    fresh = count(max(occ, default=0) + 1).__next__

    comp_of_new: dict[Edge, str] = dict(al.base.components)
    slot_component: dict[tuple[str, int], str] = {}
    for comp, plist in al.passages.items():
        for p in plist:
            slot_component[(p.circle, p.slot)] = comp

    uf = UnionFind()
    stubs: dict[str, dict[int, tuple[Edge, Edge]]] = {}
    for lab in sorted(al.circles):
        circle = al.circles[lab]
        m = circle.strand_count
        if lab in twists:
            t = twists[lab]
            letter = circle.pattern_sign * circle.handedness * (1 if t >= 0 else -1)
            word = [(i, letter) for i, _ in full_ribbon_braid(m, abs(t))]
            # Braid positions run across the disk; a left-handed local frame
            # mirrors the assignment so the tangle glues back planarly.
            pos_to_slot = (
                list(range(m)) if circle.chirality == 1 else list(range(m - 1, -1, -1))
            )
            w_stubs = [fresh() for _ in range(m)]
            current = list(w_stubs)
            comps = [slot_component[(lab, j)] for j in pos_to_slot]
            comp_of_new.update(zip(w_stubs, comps))
            for i, s in word:
                lo, ro = fresh(), fresh()
                crossings.append(braid_crossing(s, current[i - 1], current[i], lo, ro))
                current[i - 1], current[i] = lo, ro
                # The two strands swap positions at every letter.
                comps[i - 1], comps[i] = comps[i], comps[i - 1]
                comp_of_new[lo], comp_of_new[ro] = comps[i - 1], comps[i]
            stubs[lab] = {
                pos_to_slot[p]: (w_stubs[p], current[p]) for p in range(m)
            }
        elif expand_rest:
            stubs[lab] = _expand_circle(
                crossings, fresh, al, lab, comp_of_new, slot_component
            )
        else:
            raise DiagramInvariantError(f"no filling for circle {lab}")

    loops_left: list[str] = []
    for comp in sorted(al.passages):
        plist = al.passages[comp]
        if not plist:
            if comp in al.base.loops:
                loops_left.append(comp)
            continue
        if comp in al.base.loops:
            pieces = [fresh() for _ in range(len(plist))]
            for piece in pieces:
                comp_of_new[piece] = comp
            for k, p in enumerate(plist):
                w_stub, e_stub = stubs[p.circle][p.slot]
                before, after = pieces[k - 1], pieces[k]
                if p.direction == 1:
                    uf.union(before, w_stub)
                    uf.union(after, e_stub)
                else:
                    uf.union(before, e_stub)
                    uf.union(after, w_stub)
        else:
            by_edge: dict[Edge, list[Passage]] = {}
            for p in plist:
                by_edge.setdefault(p.edge, []).append(p)
            for e, evs in by_edge.items():
                evs = sorted(evs, key=lambda p: p.rank)
                ends = occ[e]
                pieces = [e] + [fresh() for _ in range(len(evs))]
                far_ci, far_s = ends[1]
                cr = list(crossings[far_ci])
                cr[far_s] = pieces[-1]
                crossings[far_ci] = tuple(cr)
                for piece in pieces[1:]:
                    comp_of_new[piece] = comp
                for k, p in enumerate(evs):
                    w_stub, e_stub = stubs[p.circle][p.slot]
                    if p.frame == 1:  # W side faces occurrence 0
                        uf.union(pieces[k], w_stub)
                        uf.union(pieces[k + 1], e_stub)
                    else:
                        uf.union(pieces[k], e_stub)
                        uf.union(pieces[k + 1], w_stub)

    resolved = [tuple(uf.find(e) for e in cr) for cr in crossings]
    comp_map: dict[Edge, str] = {}
    for e, lab in comp_of_new.items():
        comp_map.setdefault(uf.find(e), lab)
    ids = sorted({e for cr in resolved for e in cr})
    compact = {e: i + 1 for i, e in enumerate(ids)}
    final = tuple(tuple(compact[e] for e in cr) for cr in resolved)
    components = {compact[e]: comp_map[e] for e in ids}
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
