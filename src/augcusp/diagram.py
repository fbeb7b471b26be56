"""Planar link diagrams as PD codes: parsing, faces, twist regions.

A crossing is a 4-tuple of edge ids listed counterclockwise from the incoming
understrand, so slots 0 and 2 carry the understrand and slots 1 and 3 the
overstrand.  Edge ids are positive integers, each appearing exactly twice in
the crossing list.  A component label is attached to every edge; crossingless
components (bare loops) are carried separately since PD codes cannot encode
them.
"""

from __future__ import annotations

import json
import logging
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import chain

from .errors import DiagramInvariantError, PDSyntaxError, ReducibleDiagramWarning

log = logging.getLogger(__name__)


class _cached(cached_property):
    """`functools.cached_property` without the lock that its first read on
    an instance takes before Python 3.12 (3.12 dropped it).  A diagram fills
    eight of these while it validates; on the small diagrams of a PD round
    trip the lock took about a sixth of that time."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return super().__get__(instance, owner)
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


Edge = int
Crossing = tuple[Edge, Edge, Edge, Edge]
HalfEnd = tuple[int, int]  # (crossing index, slot)
# (number of loops, sorted codes of the connected parts); see canonical_pd.
CanonicalPD = tuple[int, tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class Diagram:
    """Validated planar link diagram.

    Attributes:
        crossings: PD tuples, counterclockwise from the incoming understrand.
        components: edge id -> component label.
        signs: optional per-crossing sign (+1/-1), parallel to `crossings`.
        loops: labels of crossingless components (not representable in PD).
    """

    crossings: tuple[Crossing, ...]
    components: dict[Edge, str]
    signs: tuple[int, ...] | None = None
    loops: tuple[str, ...] = ()

    def __post_init__(self):
        _validate(self)

    def __getstate__(self):
        # Pickle the fields only: the caches below are rebuilt on demand.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @_cached
    def _edge(self) -> list[Edge]:
        """Dart 4*crossing + slot -> its edge id."""
        return list(chain.from_iterable(self.crossings))

    @_cached
    def _darts(self) -> list[int]:
        """The dart index: the darts sorted by edge id, so that the two ends
        of each edge sit side by side, in crossing order."""
        edge = self._edge
        return sorted(range(len(edge)), key=edge.__getitem__)

    @_cached
    def _edges(self) -> list[Edge] | None:
        """The edge ids in ascending order, read off the dart index; None
        unless every edge id is at exactly two darts."""
        ends = list(map(self._edge.__getitem__, self._darts))
        edges = ends[::2]
        if edges != ends[1::2] or 2 * len(set(edges)) != len(ends):
            return None
        return edges

    @_cached
    def _twin(self) -> list[int]:
        """Dart -> the dart at the other end of its edge."""
        twin = [0] * len(self._darts)
        pairs = iter(self._darts)
        for x, y in zip(pairs, pairs):
            twin[x], twin[y] = y, x
        return twin

    @_cached
    def _strands(self) -> list[tuple[int, ...]]:
        """One walk per component, ordered by the component's least edge and
        walked from that edge's first end; see `_strand_walks`."""
        return _strand_walks(self._darts[::2], self._twin)

    @_cached
    def _walks(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(label, walk) per component, in the order of `_strands`."""
        edge = self._edge
        return tuple((self.components[edge[w[0]]], w) for w in self._strands)

    @_cached
    def _parts(self) -> tuple[list[int], ...]:
        """The crossings of each connected part of the projection, from one
        search over crossings, each joined to the four crossings at the other
        ends of its edges."""
        twin = self._twin
        seen = [False] * len(self.crossings)
        parts = []
        for c in range(len(self.crossings)):
            if seen[c]:
                continue
            seen[c] = True
            part = [c]
            for x in part:
                for y in twin[4 * x : 4 * x + 4]:
                    if not seen[y >> 2]:
                        seen[y >> 2] = True
                        part.append(y >> 2)
            parts.append(part)
        return tuple(parts)

    @_cached
    def _corner_walk(self) -> tuple[list[int], list[int], list[int]]:
        """One walk over the corners, as integers: (starts, the face of each
        corner, the corners in walk order); face i is the run
        walk[starts[i] : starts[i + 1]].

        Corner 4c + k is the sector between slots k and k+1 of crossing c.
        The walk keeps the region on the right of each traversed edge, which
        on a counterclockwise slot ordering means: leave corner x through
        its next dart (slot k+1), arrive at that dart's twin, and continue
        with the corner there, so the face across that edge is the face of
        the corner at the next dart.  One scan over the corners in order
        starts a face at each corner not yet walked, so the faces are
        numbered by their least corner, and each walk starts there.
        """
        twin = self._twin
        # The corner after x in its face: the corner at the twin of x's
        # next dart, read for all corners at once.
        succ = twin[1:] + twin[:1]
        succ[3::4] = twin[0::4]
        face_of = [-1] * len(twin)
        walk = []
        starts = []
        for start in range(len(twin)):
            if face_of[start] >= 0:
                continue
            face = len(starts)
            starts.append(len(walk))
            x = start
            while face_of[x] < 0:
                face_of[x] = face
                walk.append(x)
                x = succ[x]
        starts.append(len(walk))
        return starts, face_of, walk

    @_cached
    def _bigons(self) -> list[tuple[int, int]]:
        """Each bigon, a face of two corners at two different crossings, as
        its two corners in walk order; the bigons in face order."""
        starts, _, walk = self._corner_walk
        return [
            (walk[s], walk[s + 1])
            for s, t in zip(starts, starts[1:])
            if t - s == 2 and walk[s] >> 2 != walk[s + 1] >> 2
        ]

    @_cached
    def _face_colorings(self) -> tuple[list[int], dict[str, int]]:
        """2-colorings of faces by crossing parity with each component's curve.

        One search over the faces, the runs of `_corner_walk`, carries a bit
        per component.  Returns the bits of each face (-1 where the search
        did not reach), and the bit position of each component whose coloring
        holds: not one whose curve touches a face on both sides or whose
        parities conflict, and none when the faces are not connected.
        """
        labels = sorted(set(self.components.values()))
        bit = {lab: 1 << j for j, lab in enumerate(labels)}
        starts, face_of, walk = self._corner_walk
        flips = list(map(bit.__getitem__, map(self.components.__getitem__, self._edge)))
        color = [0] + [-1] * (len(starts) - 2) if len(starts) > 1 else []  # no faces
        bad = 0
        stack = [0] if color else []
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
        holds = {} if -1 in color else {lab: j for j, lab in enumerate(labels) if not bad >> j & 1}
        log.debug(
            "face colorings: %d crossings, %d faces, holding for %s",
            len(self.crossings), len(color), ", ".join(holds) or "no component",
        )
        return color, holds

    @_cached
    def _canonical_pd(self) -> CanonicalPD:
        return (len(self.loops), tuple(sorted(_part_codes(self))))

    def to_json(self) -> str:
        doc = {
            "pd": [list(c) for c in self.crossings],
            "components": {str(e): lab for e, lab in sorted(self.components.items())},
        }
        if self.signs is not None:
            doc["signs"] = list(self.signs)
        if self.loops:
            doc["loops"] = list(self.loops)
        return json.dumps(doc, sort_keys=True)


@dataclass(frozen=True)
class Face:
    """One complementary region: corners and the edges along its boundary."""

    corners: tuple[HalfEnd, ...]  # (crossing, slot) sectors, in walk order
    boundary: tuple[Edge, ...]


@dataclass(frozen=True)
class FaceMap:
    faces: tuple[Face, ...]


@dataclass
class TwistRegion:
    """Maximal chain of bigons (m = 2) or a validated m-strand ribbon twist."""

    crossings: list[int]
    strand_count: int
    full_twists: int
    half_twist: bool
    handedness: int
    is_cycle: bool = False
    bigon_edge_pairs: list[tuple[Edge, Edge]] = field(default_factory=list)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


# -- parsing and validation -------------------------------------------------


def parse_diagram(text: str) -> Diagram:
    """Parse the JSON envelope {"pd": ..., "components": ..., "signs": ...}."""
    if not text.strip():
        raise PDSyntaxError("empty input")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise PDSyntaxError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "pd" not in doc:
        raise PDSyntaxError("expected an object with a 'pd' field")
    pd = doc["pd"]
    if not isinstance(pd, list) or not all(
        isinstance(c, list) and len(c) == 4 for c in pd
    ):
        raise PDSyntaxError("'pd' must be a list of 4-element lists")
    crossings = tuple(map(tuple, pd))
    ids = list(chain.from_iterable(crossings))
    # A JSON integer only: int() would read 1.5 and true as 1.
    if not set(map(type, ids)) <= {int}:
        bad = next(e for e in ids if type(e) is not int)
        raise PDSyntaxError(f"edge ids must be integers, got {json.dumps(bad)}")
    if ids and min(ids) <= 0:
        raise PDSyntaxError("edge ids must be positive integers")

    comp_doc = doc.get("components")
    components = None
    if comp_doc is not None:
        if not isinstance(comp_doc, dict):
            raise PDSyntaxError("'components' must be an object")
        _check_labels(list(comp_doc.values()), "components")
        components = {}
        for k, v in comp_doc.items():
            # Only the decimal integer to_json writes: int() also reads " 1" and "+2".
            try:
                edge = int(k)
            except ValueError:
                edge = None
            if str(edge) != k:
                raise PDSyntaxError(f"'components' keys must be edge ids, got {json.dumps(k)}")
            components[edge] = str(v)

    signs_doc = doc.get("signs")
    signs = None
    if signs_doc is not None:
        if (
            not isinstance(signs_doc, list)
            or len(signs_doc) != len(crossings)
            or not all(type(s) is int and s in (1, -1) for s in signs_doc)
        ):
            raise PDSyntaxError("'signs' must list the integer 1 or -1 per crossing")
        signs = tuple(signs_doc)

    loops_doc = doc.get("loops", [])
    if not isinstance(loops_doc, list):
        raise PDSyntaxError("'loops' must be a list of component labels")
    _check_labels(loops_doc, "loops")
    loops = tuple(map(str, loops_doc))
    if components is None:
        return _with_inferred_components(crossings, signs, loops)
    return Diagram(crossings, components, signs, loops)


def _check_labels(labels: list, field: str) -> None:
    """Refuse a component label that is not a JSON string or integer: str()
    would also read null as "None" and a list as its repr."""
    if not set(map(type, labels)) <= {str, int}:
        bad = next(v for v in labels if type(v) not in (str, int))
        raise PDSyntaxError(f"'{field}' labels must be strings or integers, got {json.dumps(bad)}")


def _with_inferred_components(crossings, signs=None, loops=()) -> Diagram:
    """The diagram on `crossings` whose k-th strand walk, the walks ordered
    by their least edge, is component str(k).

    The dart index and the walks are built once, on the diagram before its
    other fields are set; validation then reads them instead of building
    them again.  When an edge id is not at exactly two darts every edge is
    labelled "0", and validation names the offending edges.
    """
    d = object.__new__(Diagram)
    object.__setattr__(d, "crossings", crossings)
    edges = d._edges
    if edges is None:
        components = dict.fromkeys(d._edge, "0")
    else:
        components = dict.fromkeys(edges)
        edge = d._edge
        for k, walk in enumerate(d._strands):
            lab = str(k)
            for x in walk:
                components[edge[x]] = lab
    Diagram.__init__(d, crossings, components, signs, loops)
    return d


def _strand_walks(firsts: list[int], twin: list[int]) -> list[tuple[int, ...]]:
    """The darts each component's strand arrives at: one walk per component,
    from the first dart of `firsts` that no earlier walk reached.  A strand
    arriving at dart x leaves by x ^ 2 and arrives at twin[x ^ 2]."""
    walked = [False] * len(twin)
    walks = []
    for x in firsts:
        if walked[x]:
            continue
        walk = []
        while not walked[x]:
            walked[x] = walked[twin[x]] = True
            walk.append(x)
            x = twin[x ^ 2]
        walks.append(tuple(walk))
    return walks


def _validate(d: Diagram) -> None:
    """Check the invariants on the dart index: each edge id at exactly two
    darts, the component map keyed by those edges and threaded through the
    crossings, one label per strand walk, and V - E + F = 2 per connected
    part, the faces counted by one walk over the corners (`_corner_walk`).
    No `Face` object is built."""
    if not d.crossings and not d.loops:
        raise DiagramInvariantError("diagram has no crossings and no loops")
    edges = d._edges
    if edges is None:
        bad = sorted(e for e, n in Counter(d._edge).items() if n != 2)
        raise DiagramInvariantError(
            f"edge ids must appear exactly twice, offending: {bad}"
        )
    comps = d.components
    if comps.keys() != set(edges):
        missing = sorted(set(edges) - comps.keys())
        extra = sorted(comps.keys() - set(edges))
        raise DiagramInvariantError(
            f"component map mismatch (missing {missing}, extra {extra})"
        )
    # Threading consistency: edges joined through a crossing share a label.
    for cr in d.crossings:
        if comps[cr[0]] != comps[cr[2]]:
            raise DiagramInvariantError(
                f"understrand changes component at crossing {cr}"
            )
        if comps[cr[1]] != comps[cr[3]]:
            raise DiagramInvariantError(
                f"overstrand changes component at crossing {cr}"
            )
    carried: set[str] = set()
    for lab in [lab for lab, _ in d._walks] + list(d.loops):
        if lab in carried:
            raise DiagramInvariantError(
                f"component label {lab!r} is carried by two separate components"
            )
        carried.add(lab)
    if d.signs is not None and len(d.signs) != len(d.crossings):
        raise DiagramInvariantError("signs length differs from crossing count")
    if d.crossings:
        v = len(d.crossings)
        e = 2 * v
        f = len(d._corner_walk[0]) - 1
        # Each connected part of the projection contributes its own sphere.
        if v - e + f != 2 * len(d._parts):
            raise DiagramInvariantError(
                f"face traversal does not close on a sphere: V-E+F = {v - e + f}"
            )


# -- faces -------------------------------------------------------------------


def compute_faces(d: Diagram) -> FaceMap:
    """The complementary regions as `Face` objects, in linear time.

    The only function that builds `Face` objects; nothing in the package
    reads them.  It reads the corner walk that validation made
    (`Diagram._corner_walk`): each face is a run of corners in walk order,
    corner 4c + k becomes (c, k), and its boundary edge is the one at the
    dart it leaves by, slot k+1.  So the faces are ordered by their least
    corner, and each starts there.
    """
    starts, _, walk = d._corner_walk
    edge = d._edge
    faces = []
    for s, t in zip(starts, starts[1:]):
        run = walk[s:t]
        corners = tuple((x >> 2, x & 3) for x in run)
        boundary = tuple(edge[x - 3 if x & 3 == 3 else x + 1] for x in run)
        faces.append(Face(corners, boundary))
    return FaceMap(tuple(faces))


# -- twist regions (two strands) ----------------------------------------------


def detect_twist_regions(d: Diagram) -> list[TwistRegion]:
    """Maximal alternating bigon chains plus singleton regions.

    Crossings belonging to no bigon become singleton regions.  A chain that
    fails the alternation requirement is split at the junction and a
    ReducibleDiagramWarning is emitted.  Reads the bigons off the corner
    walk (`Diagram._bigons`, see `_bigon_links`) and walks their chains
    (`_walk_chains`).
    """
    crossings = range(len(d.crossings))
    return _walk_chains(d, *_bigon_links(d, crossings), crossings)


def _bigon_links(
    d: Diagram, crossings
) -> tuple[list[list[tuple[int, int]] | None], list[tuple[Edge, Edge]]]:
    """Crossing -> its links along the alternating bigons between two of
    `crossings` (None for a crossing not among them), and each such bigon's
    two edges, sorted.  A link is (bigon number, neighbour crossing), and
    each bigon's two edges are read once, with its alternation test."""
    twin, edge = d._twin, d._edge
    links: list[list[tuple[int, int]] | None] = [None] * len(d.crossings)
    for c in crossings:
        links[c] = []
    pair_of: list[tuple[Edge, Edge]] = []  # bigon number -> its edges, sorted
    for x, y in d._bigons:
        if links[x >> 2] is None or links[y >> 2] is None:
            continue
        # Alternating: each edge, at a corner's next dart, changes over/under
        # role between the two crossings; otherwise the two crossings cancel.
        x = x - 3 if x & 3 == 3 else x + 1
        y = y - 3 if y & 3 == 3 else y + 1
        if not (x ^ twin[x]) & (y ^ twin[y]) & 1:
            warnings.warn(
                "non-alternating bigon chain: diagram is reducible; "
                "splitting the twist region at the junction",
                ReducibleDiagramWarning,
                stacklevel=3,
            )
            continue
        b = len(pair_of)
        pair_of.append((edge[x], edge[y]) if edge[x] <= edge[y] else (edge[y], edge[x]))
        links[x >> 2].append((b, y >> 2))
        links[y >> 2].append((b, x >> 2))
    if any(len(links[c]) > 2 for c in crossings):
        for c in crossings:
            # Four bigons at a crossing all join it to one other crossing: a
            # 2-crossing Hopf part, with two equally valid twist-region
            # readings; fix one by pairing edge-disjoint bigons.
            lk = links[c]
            if len(lk) == 4:
                b0 = lk[0][0]
                edges = set(pair_of[b0])
                keep = {b0} | {b for b, _ in lk if not edges.intersection(pair_of[b])}
                for x in (c, lk[0][1]):
                    links[x] = [k for k in links[x] if k[0] in keep]
        if any(len(links[c]) > 2 for c in crossings):
            raise DiagramInvariantError(
                "a crossing borders more than two bigons; not a reduced diagram"
            )
    return links, pair_of


def _walk_chains(d: Diagram, links, pair_of, crossings) -> list[TwistRegion]:
    """The chain region of each of `crossings`, ascending, that no earlier
    region holds, along the links of `_bigon_links`.

    The first crossing of each region is its least.  Its chain is walked
    from there along each of its links, to an end or round a cycle back,
    and read from the lesser end (a cycle: from there, along its first
    link)."""
    signs = d.signs
    regions: list[TwistRegion] = []
    seen = [False] * len(d.crossings)
    for c0 in crossings:
        if seen[c0]:
            continue
        seen[c0] = True
        back: list[int] = []  # the other arm: crossings and bigons
        back_pairs: list[int] = []
        arm, pairs, is_cycle = back, back_pairs, False
        for b, nb in links[c0]:
            back, back_pairs, arm, pairs = arm, pairs, [], [b]
            while nb != c0:
                seen[nb] = True
                arm.append(nb)
                if len(links[nb]) == 1:
                    break
                first, second = links[nb]
                b, nb = second if first[0] == b else first
                pairs.append(b)
            else:  # round a cycle
                is_cycle = True
                break
        if back and arm[-1] < back[-1]:
            back, back_pairs, arm, pairs = arm, pairs, back, back_pairs
        chain = back[::-1] + [c0] + arm
        n = len(chain)
        handed = signs[chain[0]] if signs is not None else 1
        regions.append(
            TwistRegion(chain, 2, handed * (n // 2), bool(n % 2), handed, is_cycle,
                        [pair_of[b] for b in back_pairs[::-1] + pairs])
        )
    return regions


# -- generalized twist regions --------------------------------------------------


def _subtangle_strands(d: Diagram, crossing_ids: list[int]) -> list[list[int]]:
    """The strands of the subdiagram on the given crossings, each as the darts
    it arrives at, from its first boundary end in dart order: for a dart x,
    x >> 2 is its crossing and x & 1 says whether the strand passes over."""
    S = set(crossing_ids)
    twin = d._twin
    ends = [x for c in sorted(S) for x in range(4 * c, 4 * c + 4) if twin[x] >> 2 not in S]
    strands = []
    done: set[int] = set()
    for x in ends:
        if x in done:
            continue
        path = [x]
        while twin[x ^ 2] >> 2 in S:
            x = twin[x ^ 2]
            path.append(x)
        done.add(x ^ 2)  # the far end: the strand is traced from one end only
        strands.append(path)
    return strands


def validate_generalized_region(
    d: Diagram, crossing_ids: list[int], strand_count: int | None = None
) -> TwistRegion:
    """Check that the annotated crossings form an m-strand ribbon twist.

    A full twist contributes m(m-1) crossings with every strand pair
    crossing twice; a half twist adds m(m-1)/2 with every pair crossing
    once and alternating over/under along each strand.  Returns the region
    with (m, full twists, half twist) on success; a region that
    `detect_twist_regions` finds validates to itself.
    """
    ids = sorted(set(crossing_ids))
    if len(ids) != len(crossing_ids):
        raise DiagramInvariantError("annotation repeats a crossing")
    for c in ids:
        if not 0 <= c < len(d.crossings):
            raise DiagramInvariantError(f"annotation names crossing {c} not in diagram")
    strands = _subtangle_strands(d, ids)
    m = len(strands)
    if m < 2:
        # Detection reads a cyclic chain as closed strands (m = 0), and a
        # chain through a nugatory crossing as one strand (m = 1).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ReducibleDiagramWarning)
            try:
                regions = detect_twist_regions(d)
            except DiagramInvariantError:
                if m == 0:
                    raise
                regions = []
        reg = next((r for r in regions if sorted(r.crossings) == ids), None)
        if reg is not None and strand_count in (None, 2):
            return reg
        if m == 0 and reg:
            raise DiagramInvariantError(f"closed chain has 2 strands, expected {strand_count}")
        if m == 0:
            raise DiagramInvariantError("annotation bounds no strands and is not a bigon chain")
    if strand_count is not None and m != strand_count:
        raise DiagramInvariantError(f"annotation has {m} strands, expected {strand_count}")
    if m < 2:
        raise DiagramInvariantError("a twist region needs at least two strands")
    t, rem = divmod(len(ids), m * (m - 1))
    half = rem == m * (m - 1) // 2
    if rem and not half:
        raise DiagramInvariantError(
            f"{len(ids)} crossings is not t full + half ribbon twists of {m} strands "
            f"(first offending crossing {ids[0]})"
        )
    # Each crossing's passes as (strand, over), in the order the strands reach
    # it; one arrives at slot 0 or 2, the other at 1 or 3, so one passes over.
    passes: dict[int, list[tuple[int, int]]] = {}
    for si, path in enumerate(strands):
        for x in path:
            passes.setdefault(x >> 2, []).append((si, x & 1))
    # Strand pair -> (its least crossing, crossings, over - under passes of its
    # first strand), the pairs in the order the strands first reach them.
    pairs: dict[tuple[int, int], tuple[int, int, int]] = {}
    for c, ps in passes.items():
        if len(ps) != 2:
            raise DiagramInvariantError(
                f"crossing {c} is not met by exactly two annotation strands"
            )
        (s1, over), (s2, _) = ps
        first, count, balance = pairs.get((s1, s2), (c, 0, 0))
        pairs[s1, s2] = (min(first, c), count + 1, balance + (1 if over else -1))
    want = 2 * t + half
    for first, count, _ in pairs.values():
        if count != want:
            raise DiagramInvariantError(
                f"strand pair crosses {count} times, ribbon pattern needs {want} "
                f"(first offending crossing {first})"
            )
    if len(pairs) != m * (m - 1) // 2:
        raise DiagramInvariantError("some strand pairs never cross")
    for c, ((s1, _), (s2, _)) in passes.items():
        if s1 == s2:
            raise DiagramInvariantError(f"crossing {c}: one annotation strand passes it twice")
    # In a ribbon twist every pair alternates who passes over: t times each
    # per t full twists, with a half twist adding one unbalanced crossing.
    for first, _, balance in pairs.values():
        if abs(balance) > half:
            raise DiagramInvariantError(
                "over and under passes are unbalanced: not a ribbon twist "
                f"(first offending crossing {first})"
            )
    # For two strands also demand alternation (rules out reducible pairs),
    # and return the bigon chain in order, with its bigons, as detected.
    if m == 2:
        for path in strands:
            if any(not (x ^ y) & 1 for x, y in zip(path, path[1:])):
                raise DiagramInvariantError(
                    "strand does not alternate over and under: reducible "
                    f"pair (first offending crossing {path[0] >> 2})"
                )
        regions = _walk_chains(d, *_bigon_links(d, ids), ids)
        if len(regions) != 1:
            raise DiagramInvariantError(f"annotated crossings {ids} are not one bigon chain")
        return regions[0]
    handed = d.signs[ids[0]] if d.signs is not None else 1
    return TwistRegion(
        crossings=ids, strand_count=m, full_twists=handed * t, half_twist=half, handedness=handed
    )


# -- PD isomorphism -----------------------------------------------------------


def canonical_pd(d: Diagram) -> CanonicalPD:
    """Hashable key, for deduplication, that is equal for two diagrams exactly
    when `pd_isomorphic` holds: the PD codes agree up to edge relabelling,
    crossing order and rotating a crossing by two slots.

    Each connected part of the projection is read as a BFS code (see
    `_read`) from every crossing in both of its rotations, and the least
    code is kept (see `_part_codes`); the key is (number of loops, sorted
    part codes).  Rotating by two re-bases the understrand at its other
    end, so it is the same unoriented crossing; odd rotations would exchange
    over and under, so a mirror image is a different diagram.  Component
    labels and signs are ignored.  Costs O(n^2) time and O(n) memory for n
    crossings, and is cached on the diagram.
    """
    return d._canonical_pd


def _part_codes(d: Diagram) -> list[tuple[int, ...]]:
    """The least code of each connected part of the projection, and one DEBUG
    record of what reading them took.

    A part is read through `_read` from each of its crossings in both
    rotations.  Each reading is compared with the least code so far and
    dropped at its first entry above it; one that goes below it is read
    again whole and becomes the least."""
    n = len(d.crossings)
    quads = _quads(n)
    num = [0] * (4 * n)
    seen = [False] * n
    twin = d._twin
    codes = []
    least = 0  # readings that reproduce their part's least code
    for part in d._parts:
        code = None
        for c in part:
            for x in (4 * c, 4 * c + 2):
                order = [x]
                sign = -1 if code is None else _read(twin, quads, num, seen, order, code)
                if sign < 0:
                    _clear(order, num, seen)
                    order = [x]
                    _read(twin, quads, num, seen, order, None)
                    code = [num[z] for y in order for z in quads[y >> 1]]
                    ties = 1
                elif sign == 0:
                    ties += 1
                _clear(order, num, seen)
        codes.append(tuple(code))
        least += ties
    log.debug(
        "canonical_pd: %d crossings, %d parts, %d readings, %d on the least code",
        n, len(codes), 2 * n, least,
    )
    return codes


def pd_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """Combinatorial isomorphism of PD codes up to edge relabelling, crossing
    order and rotation of crossings by two, as `canonical_pd` equality, but
    without reading either least code (Weinberg's test).

    Each connected part of `d1` is read once (see `_read`), from its least
    crossing through slot 0, and is matched by the first unused part of `d2`
    of the same size that some reading reproduces; a reading is abandoned at
    its first entry that differs from the code.  Taking any matching part is
    safe, since isomorphism is an equivalence.  Costs O(n^2) time at worst
    and O(n) memory for n crossings, and writes one DEBUG record."""
    n = len(d1.crossings)
    tried = 0
    same = (
        n == len(d2.crossings)
        and len(d1.loops) == len(d2.loops)
        and sorted(map(len, d1._parts)) == sorted(map(len, d2._parts))
    )
    if same:
        quads = _quads(n)
        num = [0] * (4 * n)
        seen = [False] * n
        twin1, twin2 = d1._twin, d2._twin
        unused = list(d2._parts)
        for part in d1._parts:
            order = [4 * part[0]]
            _read(twin1, quads, num, seen, order, None)
            code = [num[x] for y in order for x in quads[y >> 1]]
            _clear(order, num, seen)
            k, t = _match(twin2, quads, num, seen, code, unused, len(part))
            tried += t
            if k is None:
                same = False
                break
            del unused[k]
    log.debug(
        "pd_isomorphic: %d crossings, %d parts, %d readings tried: %s",
        n, len(d1._parts), tried, "isomorphic" if same else "not isomorphic",
    )
    return same


def _quads(n: int) -> list[tuple[int, int, int, int]]:
    """The darts of a crossing in reading order, at y >> 1 for the dart y it
    is reached through: from slot y & 2 on."""
    return [(x, x + 1, x ^ 2, (x ^ 2) + 1) for x in range(0, 4 * n, 2)]


def _match(twin, quads, num, seen, code, parts, size) -> tuple[int | None, int]:
    """The index of the first of `parts` of `size` crossings that some
    reading reproduces `code` on (None if none does), and the number of
    readings tried."""
    tried = 0
    for k, part in enumerate(parts):
        if len(part) == size:
            for c in part:
                for x in (4 * c, 4 * c + 2):
                    tried += 1
                    order = [x]
                    sign = _read(twin, quads, num, seen, order, code)
                    _clear(order, num, seen)
                    if sign == 0:
                        return k, tried
    return None, tried


def _read(twin, quads, num, seen, order, code) -> int:
    """Read the part through dart order[0]: number the edges in `num` from 1
    in order of first appearance and append the darts the crossings are
    reached through to `order`.  Given a `code`, stop at the first entry that
    differs from it and return its sign against the code's entry: -1 below,
    1 above, and 0 when none differs.

    The crossings are read in the order they are reached, each from the
    slot it was reached through, rounded down to an even slot (the reading
    of `_quads`); an isomorphism preserves that, so the first dart fixes the
    whole code."""
    seen[order[0] >> 2] = True
    e = 1
    k = 0
    for y in order:
        for x in quads[y >> 1]:
            v = num[x]
            if not v:
                v = num[x] = num[twin[x]] = e
                e += 1
                z = twin[x] >> 2
                if not seen[z]:
                    seen[z] = True
                    order.append(twin[x])
            if code is not None:
                if v != code[k]:
                    return -1 if v < code[k] else 1
                k += 1
    return 0


def _clear(order, num, seen) -> None:
    """Undo a reading: unmark the crossings it reached and their darts."""
    for y in order:
        seen[y >> 2] = False
        num[y & -4 : (y & -4) + 4] = (0, 0, 0, 0)


# -- braid insertion and ribbon twist patterns --------------------------------


def braid_crossing(
    sign: int, left_in: Edge, right_in: Edge, left_out: Edge, right_out: Edge
) -> Crossing:
    """PD tuple for one braid letter, strands flowing downward.

    For a positive letter the left strand passes over; the understrand runs
    from top-right to bottom-left.  Counterclockwise from the incoming
    understrand this reads (right_in, left_in, left_out, right_out).  For a
    negative letter the left strand dives under, exiting at the right
    position below, which reads (left_in, left_out, right_out, right_in).
    """
    if sign > 0:
        return (right_in, left_in, left_out, right_out)
    return (left_in, left_out, right_out, right_in)


def full_ribbon_braid(m: int, t: int) -> list[tuple[int, int]]:
    """Braid word of |t| full ribbon twists on m strands: signed generator
    indices ((sigma_1 ... sigma_{m-1})^m per full twist)."""
    word: list[tuple[int, int]] = []
    s = 1 if t >= 0 else -1
    for _ in range(abs(t)):
        for _ in range(m):
            for i in range(1, m):
                word.append((i, s))
    return word


def half_ribbon_braid(m: int, s: int) -> list[tuple[int, int]]:
    """Braid word of a single ribbon half twist on m strands (one crossing of
    the outermost strands for the whole ribbon: the permutation reverses the
    strand order)."""
    word: list[tuple[int, int]] = []
    for k in range(1, m):
        for i in range(k, 0, -1):
            word.append((i, s))
    return word
