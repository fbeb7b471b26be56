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
import importlib
import importlib.util
import json
import random
import warnings
from collections import namedtuple
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonical_pd import disjoint_union, kinked, scrambled, small_diagrams

from augcusp import catalog
from augcusp.augment import _refill, augment, ledger_json, untwist_retwist_roundtrip
from augcusp.diagram import (
    Diagram,
    TwistRegion,
    compute_faces,
    detect_twist_regions,
    parse_diagram,
    validate_generalized_region,
)
from augcusp.errors import DiagramInvariantError, ReducibleDiagramWarning
from augcusp.families import fal_corpus

augment_module = importlib.import_module("augcusp.augment")
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
        if len(d.crossings) == 2 and len(bigons) == 4:
            b0 = bigons[0]
            partner = next(f for f in bigons[1:] if not set(f.boundary) & set(b0.boundary))
            chain = [b0.corners[0][0], b0.corners[1][0]]
            return [reference_chain_region(d, chain, [b0, partner], True)]
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
    """`augment` with the reference colouring in place of the corner walk's."""

    def colorings(d):
        color, bits = reference_face_colorings(d)
        return [color.get(i, -1) for i in range(len(compute_faces(d).faces))], bits

    with mock.patch.object(augment_module, "_face_colorings", colorings):
        return augment(d, regions)


def assert_same_as_reference(d):
    """Compare the readers on d; returns how many of its open chains
    `validate_generalized_region` accepts."""
    chains = 0
    regions, caught = outcome(lambda: detect_twist_regions(d))
    assert (regions, caught) == outcome(lambda: reference_twist_regions(d))
    if not d.crossings:
        assert augment_module._face_colorings(d) == ([], {})
        assert _refill(*augment(d)) == d
        return chains
    color, bits = augment_module._face_colorings(d)
    ref_color, ref_bits = reference_face_colorings(d)
    assert {i: c for i, c in enumerate(color) if c >= 0} == ref_color
    assert bits == ref_bits
    if isinstance(regions, Failed):
        return chains
    for r in regions:
        if len(r.crossings) > 1 and not r.is_cycle:
            ids = sorted(r.crossings)
            # A chain through a nugatory crossing (its two strands are one)
            # is the detected region, not the m = 2 branch's walk: the same.
            got = outcome(lambda: validate_generalized_region(d, ids))
            if not isinstance(got[0], Failed):
                assert got == outcome(lambda: reference_chain_over(d, ids))
                chains += 1
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
