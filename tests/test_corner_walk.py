"""Twist detection and `augment` on the corner walk, against the `Face`-based
readers they replaced.

`reference_twist_regions` and `reference_face_colorings` are the earlier
code: they build the diagram's `Face` objects (`compute_faces`), take the
bigons and the faces along each edge from them, and detect the twist
regions and 2-colour the faces on those.  The package reads the same
structure off the integer corner walk (`Diagram._bigons`,
`Diagram._corner_walk`).  Both must find the same regions, bigon edges,
warnings, colours and colourings that hold, and `augment` fed by the
references must give the same link, ledger and refill.  A digest pins the
front end's outputs on the benchmark pool, its round-trip variants, the
ladder and the fully augmented corpus.
"""

import dataclasses
import hashlib
import importlib.util
import json
import pickle
import random
import warnings
from collections import namedtuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonical_pd import disjoint_union, kinked, scrambled, small_diagrams, twists

from augcusp import catalog, cli
from augcusp import diagram as diagram_module
from augcusp.augment import _refill, augment, ledger_json, untwist_retwist_roundtrip
from augcusp.diagram import (
    Diagram,
    TwistRegion,
    compute_faces,
    detect_twist_regions,
    parse_diagram,
    pd_isomorphic,
    validate_generalized_region,
)
from augcusp.errors import DiagramInvariantError, ReducibleDiagramWarning
from augcusp.families import fal_corpus, three_punctured_certificate
from augcusp.geometry import analyze_cusp
from augcusp.packing import build_nerve, solve_packing

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_frozen", PERFBENCH / "frozen.py")
frozen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(frozen)
POOL = json.loads((PERFBENCH / "inputs.json").read_text())["inputs"]["pd-roundtrip"]


# -- the references: Face objects, as twist detection and augment read them before --


def reference_bigons(fm):
    return tuple(
        f for f in fm.faces if len(f.boundary) == 2 and f.corners[0][0] != f.corners[1][0]
    )


def reference_alternating(d, f):
    twin = d._twin
    return all((x ^ twin[x]) & 1 for x in (4 * c + (k + 1) % 4 for c, k in f.corners))


def reference_handed(d, c):
    return d.signs[c] if d.signs is not None else 1


def reference_chain_region(d, chain, pairs, is_cycle):
    n = len(chain)
    handed = reference_handed(d, chain[0])
    return TwistRegion(
        crossings=chain,
        strand_count=2,
        full_twists=handed * (n // 2),
        half_twist=bool(n % 2),
        handedness=handed,
        is_cycle=is_cycle,
        bigon_edge_pairs=[tuple(sorted(f.boundary)) for f in pairs],
    )


def reference_walk_chain(d, links, comp):
    ends = sorted(c for c in comp if len(links[c]) == 1)
    start = ends[0] if ends else min(comp)
    chain, pairs, prev_face, cur = [start], [], None, start
    while True:
        step = next(((f, nb) for f, nb in links[cur] if f is not prev_face), None)
        if step is None:
            break
        f, nb = step
        pairs.append(f)
        if nb == start:
            break
        chain.append(nb)
        prev_face, cur = f, nb
    if set(chain) != comp:
        raise DiagramInvariantError(
            "bigon adjacency is not a simple chain; not a reduced diagram"
        )
    return reference_chain_region(d, chain, pairs, not ends)


def reference_twist_regions(d):
    bigons = reference_bigons(compute_faces(d))
    links = {i: [] for i in range(len(d.crossings))}
    for f in bigons:
        if not reference_alternating(d, f):
            warnings.warn(
                "non-alternating bigon chain: diagram is reducible; "
                "splitting the twist region at the junction",
                ReducibleDiagramWarning,
            )
            continue
        (c1, _), (c2, _) = f.corners
        links[c1].append((f, c2))
        links[c2].append((f, c1))
    if any(len(lk) > 2 for lk in links.values()):
        for c in links:
            # Four bigons at a crossing all join it to one other crossing:
            # a 2-crossing Hopf part.  Keep its first bigon and the bigon
            # that shares no edge with it.
            if len(links[c]) == 4:
                (b0, nb), *rest = links[c]
                partner = next(f for f, _ in rest if not set(f.boundary) & set(b0.boundary))
                for x in (c, nb):
                    links[x] = [lk for lk in links[x] if lk[0] in (b0, partner)]
        if any(len(lk) > 2 for lk in links.values()):
            raise DiagramInvariantError(
                "a crossing borders more than two bigons; not a reduced diagram"
            )
    regions, visited = [], set()
    for c0 in range(len(d.crossings)):
        if c0 in visited:
            continue
        if not links[c0]:
            visited.add(c0)
            regions.append(TwistRegion([c0], 2, 0, True, reference_handed(d, c0)))
            continue
        comp, stack = {c0}, [c0]
        while stack:
            for _, nb in links[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        visited.update(comp)
        regions.append(reference_walk_chain(d, links, comp))
    return regions


def reference_chain_over(d, ids):
    """The m = 2 branch of `validate_generalized_region`: the chain of the
    bigons among the annotated crossings."""
    links = {c: [] for c in ids}
    for f in reference_bigons(compute_faces(d)):
        (c1, _), (c2, _) = f.corners
        if c1 in links and c2 in links:
            links[c1].append((f, c2))
            links[c2].append((f, c1))
    return reference_walk_chain(d, links, set(ids))


def reference_face_colorings(d):
    """Face -> bits, and the components whose colouring holds, from one
    search over the `Face` objects and the faces along each edge."""
    fm = compute_faces(d)
    labels = sorted(set(d.components.values()))
    bit = {lab: 1 << j for j, lab in enumerate(labels)}
    edge_faces = {}
    for i, f in enumerate(fm.faces):
        for e in f.boundary:
            edge_faces.setdefault(e, []).append(i)
    color, bad, stack = {0: 0}, 0, [0]
    while stack:
        i = stack.pop()
        for e in fm.faces[i].boundary:
            flip = bit[d.components[e]]
            f, g = edge_faces[e]
            j = g if f == i else f
            if j == i:
                bad |= flip
            elif j in color:
                bad |= color[j] ^ color[i] ^ flip
            else:
                color[j] = color[i] ^ flip
                stack.append(j)
    if len(color) != len(fm.faces):
        return color, {}
    return color, {lab: j for j, lab in enumerate(labels) if not bad >> j & 1}


# -- comparing them ------------------------------------------------------------------

Failed = namedtuple("Failed", "kind message")


def outcome(build):
    """(the value or how it failed, the messages of the warnings raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = build()
        except Exception as exc:  # compared by type and message
            value = Failed(type(exc), str(exc))
    return value, [str(w.message) for w in caught]


def reference_augment(d, regions):
    """`augment` with the reference colouring in place of the corner walk's:
    it runs on a copy of d whose cached colouring is seeded with the
    reference's, so its circles read that when their end sides are first
    read, which is after this returns."""
    color, bits = reference_face_colorings(d)
    seeded = Diagram(d.crossings, d.components, d.signs, d.loops)
    seeded.__dict__["_face_colorings"] = (
        [color.get(i, -1) for i in range(len(compute_faces(d).faces))], bits
    )
    return augment(seeded, regions)


def assert_same_as_reference(d):
    """Compare the readers on d, and `validate_generalized_region` on every
    run of a chain against the reference walk; returns how many of its whole
    open chains it accepts."""
    chains = 0
    regions, caught = outcome(lambda: detect_twist_regions(d))
    assert (regions, caught) == outcome(lambda: reference_twist_regions(d))
    if not d.crossings:
        assert d._face_colorings == ([], {})
        assert _refill(*augment(d)) == d
        return chains
    color, bits = d._face_colorings
    ref_color, ref_bits = reference_face_colorings(d)
    assert {i: c for i, c in enumerate(color) if c >= 0} == ref_color
    assert bits == ref_bits
    if isinstance(regions, Failed):
        return chains
    for r in regions:
        n = len(r.crossings)
        # Every run of at least two crossings along the chain, the whole of
        # an open chain included; a whole cycle bounds no strands.
        for a, b in [(a, b) for a in range(n - 1) for b in range(a + 2, n + 1)
                     if b - a < n or not r.is_cycle]:
            ids = sorted(r.crossings[a:b])
            # A chain through a nugatory crossing (its two strands are one)
            # is the detected region, not the m = 2 branch's walk: the same.
            got = outcome(lambda: validate_generalized_region(d, ids))
            if not isinstance(got[0], Failed):
                assert got == outcome(lambda: reference_chain_over(d, ids))
                chains += b - a == n
    got = outcome(lambda: augment(d, regions))
    ref = outcome(lambda: reference_augment(d, regions))
    if isinstance(got[0], Failed):
        assert got == ref
        return chains
    (al, ledger), (ref_al, ref_ledger) = got[0], ref[0]
    assert al.to_json() == ref_al.to_json()
    assert ledger == ref_ledger and ledger_json(ledger) == ledger_json(ref_ledger)
    refill, ref_refill = _refill(al, ledger), _refill(ref_al, ref_ledger)
    assert refill.to_json() == ref_refill.to_json()
    assert list(refill.components.items()) == list(ref_refill.components.items())
    return chains


def roundtrip_variants():
    """The benchmark's round-trip inputs: two variants of each pool diagram,
    each with a reshuffle."""
    items = frozen.roundtrip_items(POOL, 0, 2)  # (name, variant, reshuffled variant)
    return [parse_diagram(text) for item in items for text in item[1:]]


LADDER = [catalog.two_bridge_chain(k) for k in (5, 9, 13, 21, 31, 41, 61, 81, 121)] + [
    catalog.pretzel_link([3] * c) for c in (10, 20, 30, 40, 60)
]


class TestAgainstReference:
    def test_pool_diagrams_and_their_variants(self):
        chains = sum(assert_same_as_reference(parse_diagram(entry["pd"])) for entry in POOL)
        chains += sum(assert_same_as_reference(d) for d in roundtrip_variants())
        assert chains > 1000

    @pytest.mark.parametrize("index", range(len(LADDER)))
    def test_ladder(self, index):
        assert_same_as_reference(LADDER[index])

    def test_fully_augmented_corpus(self):
        for _, al in fal_corpus(4):
            assert_same_as_reference(al.base)

    @settings(max_examples=60, deadline=None)
    @given(small_diagrams, st.integers(0, 2**32 - 1))
    def test_scrambled_rational_and_pretzel_diagrams(self, d, seed):
        assert_same_as_reference(scrambled(d, random.Random(seed)))

    def test_hopf_diagram_reads_one_cyclic_region(self):
        d = catalog.rational_link([2])
        assert len(d.crossings) == 2 and len(d._bigons) == 4
        assert_same_as_reference(d)
        (region,) = detect_twist_regions(d)
        assert region.is_cycle and len(region.bigon_edge_pairs) == 2

    def test_a_hopf_part_of_a_split_diagram_reads_one_cyclic_region(self, tmp_path, capsys):
        # The Hopf reading applies to each 2-crossing part with four bigons,
        # not only to a whole diagram of two crossings.
        hopf, trefoil = catalog.rational_link([2]), catalog.trefoil()
        d = disjoint_union(hopf, trefoil)
        assert_same_as_reference(d)
        assert_same_as_reference(disjoint_union(trefoil, hopf))
        (h,) = detect_twist_regions(hopf)
        (t,) = detect_twist_regions(trefoil)
        assert h.crossings == [0, 1] and h.is_cycle
        shifted = dataclasses.replace(
            t, crossings=[c + 2 for c in t.crossings],
            bigon_edge_pairs=[(a + 4, b + 4) for a, b in t.bigon_edge_pairs],
        )
        assert t.crossing_count == 3 and t.is_cycle
        assert detect_twist_regions(d) == [h, shifted]
        path = tmp_path / "hopf-trefoil.json"
        path.write_text(d.to_json())
        assert cli.main(["twists", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["crossings"] for r in doc["regions"]] == [[0, 1], [c + 2 for c in t.crossings]]

    def test_non_alternating_chain_warns_like_the_reference(self):
        d = catalog.braid_closure(2, [(1, 1), (1, -1), (1, 1), (1, 1)])
        _, caught = outcome(lambda: detect_twist_regions(d))
        assert caught and all("non-alternating" in m for m in caught)
        assert_same_as_reference(d)

    def test_split_diagrams_with_loops_and_kinks(self):
        t, f = catalog.trefoil(), catalog.figure_eight()
        for d in (
            disjoint_union(t, f),
            disjoint_union(catalog.rational_link([3, 2]), catalog.pretzel_link([3, 3, 2])),
            Diagram(t.crossings, dict(t.components), None, ("L", "M")),
            kinked(t, 1, True),
            kinked(f, 2, False),
            catalog.unknot_kink(),
            Diagram((), {}, None, ("L",)),
        ):
            assert_same_as_reference(d)


# -- the region analysis, as one helper call per region -------------------------------

def reference_region_structure(d, r, idx, region_of):
    """The disk darts, lateral faces, rotation and frame of region `idx`
    (`region_of`: the region index of each crossing, -1 for none), as
    `augment` read them one region at a time through this helper."""
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


def assert_regions_as_reference(d):
    """`augment`'s circles against `reference_region_structure`, region by
    region: the rotation, chirality and pattern sign; the lateral faces,
    through the end sides their colours give; and the disk darts, as the
    passages each component's walk meets them at, in order, with the
    direction of the walk there.  Returns the number of one-crossing
    regions."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReducibleDiagramWarning)
        regions, _ = outcome(lambda: detect_twist_regions(d))
    if isinstance(regions, Failed) or not d.crossings:
        return 0
    region_of = [-1] * len(d.crossings)
    for idx, r in enumerate(regions):
        for c in r.crossings:
            region_of[c] = idx
    got = outcome(lambda: augment(d, regions))[0]
    refs = outcome(
        lambda: [reference_region_structure(d, r, idx, region_of) for idx, r in enumerate(regions)]
    )[0]
    if isinstance(got, Failed) or isinstance(refs, Failed):
        assert got == refs
        return 0
    al, _ = got
    color, bits = d._face_colorings
    disk = {}
    for idx, st in enumerate(refs):
        circle = al.circles[f"C{idx + 1}"]
        assert circle.rotation == st["rotation"]
        assert (circle.chirality, circle.pattern_sign) == (st["chirality"], st["pattern_sign"])
        north, south = (color[f] for f in st["laterals"])
        assert circle.end_sides == {c: (north >> j & 1, south >> j & 1) for c, j in bits.items()}
        disk[st["near"][0]], disk[st["near"][1]] = (circle.label, 0), (circle.label, 1)
    twin = d._twin
    for comp, walk in d._walks:
        met = []
        for b in walk:  # the strand runs from twin[b] to b
            if twin[b] in disk:
                met.append((*disk[twin[b]], -1))
            if b in disk:
                met.append((*disk[b], 1))
        assert [(p.circle, p.slot, p.direction) for p in al.passages.get(comp, [])] == met
    return sum(r.crossing_count == 1 for r in regions)


one_crossing_entries = st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=2)
diagrams_with_one_crossing_regions = st.one_of(
    st.tuples(one_crossing_entries, st.lists(twists, min_size=1, max_size=2)).map(
        lambda t: catalog.pretzel_link(t[0] + t[1])
    ),
    st.tuples(st.lists(twists, min_size=1, max_size=2), one_crossing_entries).map(
        lambda t: catalog.rational_link(t[0] + t[1])
    ),
)


class TestRegionAnalysisAgainstReference:
    def test_pool_diagrams_and_their_variants(self):
        singles = sum(assert_regions_as_reference(parse_diagram(e["pd"])) for e in POOL)
        singles += sum(assert_regions_as_reference(d) for d in roundtrip_variants())
        assert singles > 0

    def test_ladder_and_corpus(self):
        for d in LADDER + [al.base for _, al in fal_corpus(4)]:
            assert_regions_as_reference(d)

    @settings(max_examples=80, deadline=None)
    @given(diagrams_with_one_crossing_regions, st.integers(0, 2**32 - 1))
    def test_scrambled_diagrams_with_one_crossing_regions(self, d, seed):
        assert_regions_as_reference(scrambled(d, random.Random(seed)))


# -- end sides read on first use ---------------------------------------------------


@pytest.fixture
def colorings_computed(monkeypatch):
    """The diagrams whose face colorings are computed, in order."""
    calls = []
    compute = Diagram._face_colorings.func

    def counted(d):
        calls.append(d)
        return compute(d)

    spy = diagram_module._cached(counted)
    spy.__set_name__(Diagram, "_face_colorings")
    monkeypatch.setattr(Diagram, "_face_colorings", spy)
    return calls


class TestColoringsComputedOnRead:
    @pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
    def test_a_roundtrip_item_computes_none(self, colorings_computed):
        for _, text, reshuffled in frozen.roundtrip_items(POOL, 0, 2):
            d = parse_diagram(text)
            regions = detect_twist_regions(d)
            augment(d, regions)
            assert pd_isomorphic(untwist_retwist_roundtrip(d, regions), d)
            assert pd_isomorphic(d, parse_diagram(reshuffled))
        assert colorings_computed == []

    def test_a_ladder_item_computes_none(self, colorings_computed):
        """Parse through measuring every cusp, as the benchmark's ladders."""
        for d in (catalog.two_bridge_chain(9), catalog.pretzel_link([3] * 10)):
            d = parse_diagram(d.to_json())
            al, _ = augment(d, detect_twist_regions(d))
            nerve = build_nerve(al)
            packing = solve_packing(nerve)
            for cusp in nerve.cusps():
                analyze_cusp(al, cusp, packing=packing, nerve=nerve)
        assert colorings_computed == []

    def test_json_and_certificate_compute_one_per_diagram(self, colorings_computed):
        d, e = catalog.pretzel_link([5, 4, 3, 2]), catalog.pretzel_link([3, 3, 3])
        (al, _), (again, _), (al_e, _) = augment(d), augment(d), augment(e)
        assert colorings_computed == []
        al.to_json()
        assert colorings_computed == [d]
        for comp in again.passages:
            three_punctured_certificate(again, comp)
        al.to_json()
        assert colorings_computed == [d]
        for comp in al_e.passages:
            three_punctured_certificate(al_e, comp)
        al_e.to_json()
        assert colorings_computed == [d, e]


def eager_end_sides(d, regions):
    """Each circle's end sides as `augment` filled them before they were read
    on first use: the reference colouring at the reference lateral faces."""
    region_of = [-1] * len(d.crossings)
    for idx, r in enumerate(regions):
        for c in r.crossings:
            region_of[c] = idx
    color, bits = reference_face_colorings(d)
    sides = {}
    for idx, r in enumerate(regions):
        laterals = reference_region_structure(d, r, idx, region_of)["laterals"]
        north, south = (color.get(f, -1) for f in laterals)
        sides[f"C{idx + 1}"] = {c: (north >> j & 1, south >> j & 1) for c, j in bits.items()}
    return sides


@pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
def test_end_sides_read_on_first_use_equal_the_eager_ones():
    """On the pool, its round-trip variants, the ladder and the corpus bases,
    each circle's end sides equal, compare and print as the eagerly built
    dicts, and a link pickled before they are read loads equal, with plain
    dicts."""
    diagrams = [parse_diagram(entry["pd"]) for entry in POOL] + roundtrip_variants() + LADDER
    diagrams += [al.base for _, al in fal_corpus(4) if al.base.crossings]
    circles = 0
    for d in diagrams:
        regions = detect_twist_regions(d)
        got = outcome(lambda: augment(d, regions))[0]
        if isinstance(got, Failed):
            continue
        al, _ = got
        loaded = pickle.loads(pickle.dumps(al))
        eager = eager_end_sides(d, regions)
        assert {lab: c.end_sides for lab, c in al.circles.items()} == eager
        assert loaded == al
        for lab, c in al.circles.items():
            assert eager[lab] == c.end_sides and repr(c.end_sides) == repr(eager[lab])
            assert type(loaded.circles[lab].end_sides) is dict
        circles += len(eager)
    assert circles > 6000


def test_every_detected_pool_region_validates_to_itself():
    """An annotation that names a detected region validates to that region,
    also where its two strands are one strand through a nugatory crossing,
    and adds no warning of its own."""
    count = 0
    for entry in POOL:
        d = parse_diagram(entry["pd"])
        regions, _ = outcome(lambda: detect_twist_regions(d))
        validated = outcome(lambda: [validate_generalized_region(d, r.crossings) for r in regions])
        assert validated == (regions, [])
        count += len(regions)
    assert count == 1242


# sha256 over the front-end records of the pool diagrams, their round-trip
# variants, the ladder and the corpus bases with crossings: the twist
# regions, augment's link and ledger JSON and the refilled diagram.
FRONT_END_SHA = "344fcb29e1669d3ffd3a1f742a4c255faa17a96d8ae98473841d2064d663f790"


def front_end_record(d):
    regions = detect_twist_regions(d)
    al, ledger = augment(d, regions)
    refill = untwist_retwist_roundtrip(d, regions)
    return json.dumps(
        [[dataclasses.astuple(r) for r in regions], al.to_json(), ledger_json(ledger),
         refill.to_json()]
    )


@pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
def test_front_end_records_are_unchanged():
    diagrams = [parse_diagram(entry["pd"]) for entry in POOL] + roundtrip_variants() + LADDER
    diagrams += [al.base for _, al in fal_corpus(4) if al.base.crossings]
    sha = hashlib.sha256()
    for d in diagrams:
        sha.update(front_end_record(d).encode())
    assert sha.hexdigest() == FRONT_END_SHA


@pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
def test_base_edges_carry_the_edge_at_their_lesser_kept_dart():
    """`augment` labels each base edge with the input's edge id at the
    edge's lesser end, read at that end's kept crossing in the input."""
    for d in [parse_diagram(entry["pd"]) for entry in POOL] + LADDER:
        regions = detect_twist_regions(d)
        al, _ = augment(d, regions)
        removed = {c for r in regions for c in r.crossings[1 if r.half_twist else 0 :]}
        kept = [c for c in range(len(d.crossings)) if c not in removed]
        base = al.base
        assert len(base.crossings) == len(kept)
        for x in base._darts[::2]:  # the lesser dart of each base edge
            assert d._edge[4 * kept[x >> 2] + (x & 3)] == base._edge[x]


def test_catalog_builds_the_frozen_inputs(monkeypatch):
    """`perfbench/freeze.py`'s build() gives the digest recorded in
    inputs.json: the catalog still builds the frozen inputs byte for byte."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # freeze.py imports frozen
    spec = importlib.util.spec_from_file_location("perfbench_freeze", PERFBENCH / "freeze.py")
    freeze = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(freeze)
    assert frozen.digest(freeze.build()) == frozen.load_file()["digest"]
