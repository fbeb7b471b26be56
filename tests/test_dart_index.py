"""Validation on the dart index, against the validation it replaced.

`reference_validate` is the earlier validation: it builds the occurrence
map and the `Face` objects of every diagram and checks the invariants on
them.  The diagrams' own validation reads the darts sorted by edge id and
counts the faces with one walk over integers; both must raise the same
error, or accept and agree on every structure the diagram derives.  A spy on
`compute_faces` checks that no round-trip stage builds `Face` objects.
"""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonical_pd import disjoint_union, kinked, occurrences, scrambled

from augcusp import catalog, diagram
from augcusp.augment import augment, untwist_retwist_roundtrip
from augcusp.diagram import (
    Diagram,
    Face,
    FaceMap,
    _with_inferred_components,
    compute_faces,
    detect_twist_regions,
    parse_diagram,
    pd_isomorphic,
)
from augcusp.errors import DiagramInvariantError

POOL = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "inputs.json").read_text()
)["inputs"]["pd-roundtrip"]


# -- the reference: occurrences and Face objects, as validation was before ------


def reference_occurrences(crossings):
    occ = {}
    for ci, cr in enumerate(crossings):
        for slot, e in enumerate(cr):
            occ.setdefault(e, []).append((ci, slot))
    return {e: tuple(ends) for e, ends in occ.items()}


def reference_twin(crossings, occ):
    twin = [0] * (4 * len(crossings))
    for (c1, s1), (c2, s2) in occ.values():
        twin[4 * c1 + s1] = 4 * c2 + s2
        twin[4 * c2 + s2] = 4 * c1 + s1
    return twin


def reference_strand_walks(firsts, twin):
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


def reference_strands(occ, twin):
    firsts = [4 * c + s for (c, s), _ in map(occ.get, sorted(occ))]
    return reference_strand_walks(firsts, twin)


def reference_parts(crossings, twin):
    seen = [False] * len(crossings)
    parts = []
    for c in range(len(crossings)):
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


def reference_face_map(crossings, twin):
    edge = [e for cr in crossings for e in cr]
    face_of = [-1] * len(twin)
    faces = []
    for start in range(len(twin)):
        if face_of[start] >= 0:
            continue
        corners, boundary = [], []
        x = start
        while face_of[x] < 0:
            face_of[x] = len(faces)
            corners.append((x >> 2, x & 3))
            out = x - 3 if x & 3 == 3 else x + 1
            boundary.append(edge[out])
            x = twin[out]
        faces.append(Face(tuple(corners), tuple(boundary)))
    return FaceMap(tuple(faces)), face_of


def reference_components(crossings):
    """Edge id -> str(k) for the edges of the k-th strand walk; every edge
    "0" when an edge id is not at exactly two darts."""
    occ = reference_occurrences(crossings)
    if any(len(ends) != 2 for ends in occ.values()):
        return dict.fromkeys((e for cr in crossings for e in cr), "0")
    label = {}
    for k, walk in enumerate(reference_strands(occ, reference_twin(crossings, occ))):
        for x in walk:
            label[crossings[x >> 2][x & 3]] = str(k)
    return {e: label[e] for e in sorted(occ)}


def reference_validate(crossings, components, signs, loops):
    """The checks of validation on the occurrence map and a full face
    trace; returns what it derived, or raises what it found."""
    if not crossings and not loops:
        raise DiagramInvariantError("diagram has no crossings and no loops")
    occ = reference_occurrences(crossings)
    bad = sorted(e for e, ends in occ.items() if len(ends) != 2)
    if bad:
        raise DiagramInvariantError(f"edge ids must appear exactly twice, offending: {bad}")
    if occ.keys() != components.keys():
        missing = sorted(occ.keys() - components.keys())
        extra = sorted(components.keys() - occ.keys())
        raise DiagramInvariantError(f"component map mismatch (missing {missing}, extra {extra})")
    for cr in crossings:
        if components[cr[0]] != components[cr[2]]:
            raise DiagramInvariantError(f"understrand changes component at crossing {cr}")
        if components[cr[1]] != components[cr[3]]:
            raise DiagramInvariantError(f"overstrand changes component at crossing {cr}")
    twin = reference_twin(crossings, occ)
    walks = tuple(
        (components[crossings[w[0] >> 2][w[0] & 3]], w) for w in reference_strands(occ, twin)
    )
    carried = set()
    for lab in [lab for lab, _ in walks] + list(loops):
        if lab in carried:
            raise DiagramInvariantError(
                f"component label {lab!r} is carried by two separate components"
            )
        carried.add(lab)
    if signs is not None and len(signs) != len(crossings):
        raise DiagramInvariantError("signs length differs from crossing count")
    faces, face_of = reference_face_map(crossings, twin)
    parts = reference_parts(crossings, twin)
    if crossings:
        v, e, f = len(crossings), 2 * len(crossings), len(faces.faces)
        if v - e + f != 2 * len(parts):
            raise DiagramInvariantError(
                f"face traversal does not close on a sphere: V-E+F = {v - e + f}"
            )
    return {
        "occ": occ, "twin": twin, "walks": walks, "parts": parts, "faces": faces,
        "face_of": face_of,
    }


# -- mutated diagrams -------------------------------------------------------------


def _bases():
    t, f = catalog.trefoil(), catalog.figure_eight()
    out = [
        t, f, catalog.borromean_rings(), catalog.unknot_kink(),
        catalog.rational_link([2, 2, 2]), catalog.rational_link([3, -2]),
        catalog.pretzel_link([3, -2, 2]), catalog.pretzel_link([3, 3, 3]),
        catalog.two_bridge_chain(5),
        disjoint_union(t, f), disjoint_union(catalog.unknot_kink(), t),
        kinked(t, 1, True), kinked(f, 2, False),
        Diagram(t.crossings, dict(t.components), None, ("L",)),
        Diagram((), {}, None, ("L", "M")),
    ]
    return [(d.crossings, d.components, d.signs, d.loops) for d in out]


BASES = _bases()
OPS = (
    "duplicate", "merge", "drop", "swap", "missing", "extra", "relabel", "signs",
    "loop", "infer",
)


def mutate(base, ops, rng):
    """A base diagram's fields with the given changes: an entry set to
    another entry's id (duplicated and dropped ids) or to a fresh one, two
    entries swapped (often non-planar), a components entry dropped, added or
    relabelled, signs of some length, a loop added, or one edge id put in
    place of another, so that it is at four darts; "infer" drops the
    components map, to be inferred from the strand walks."""
    crossings, components, signs, loops = base
    pd = [list(cr) for cr in crossings]
    components = dict(components)
    darts = [(c, s) for c in range(len(pd)) for s in range(4)]
    top = max(components, default=0)
    infer = False
    for op in ops:
        if op == "duplicate" and darts:
            (c, s), (c2, s2) = rng.choice(darts), rng.choice(darts)
            pd[c][s] = pd[c2][s2]
        elif op == "merge" and darts:
            (c, s), (c2, s2) = rng.choice(darts), rng.choice(darts)
            gone, kept = pd[c][s], pd[c2][s2]
            pd = [[kept if e == gone else e for e in cr] for cr in pd]
        elif op == "drop" and darts:
            c, s = rng.choice(darts)
            pd[c][s] = top + 1
        elif op == "swap" and darts:
            (c, s), (c2, s2) = rng.choice(darts), rng.choice(darts)
            pd[c][s], pd[c2][s2] = pd[c2][s2], pd[c][s]
        elif op == "missing" and components:
            del components[rng.choice(sorted(components))]
        elif op == "extra":
            components[top + rng.randint(1, 3)] = "0"
        elif op == "relabel" and components:
            labels = sorted(set(components.values())) + ["X"]
            components[rng.choice(sorted(components))] = rng.choice(labels)
        elif op == "signs":
            signs = tuple(rng.choice((1, -1)) for _ in range(len(pd) + rng.randint(-1, 1)))
        elif op == "loop":
            loops = loops + (rng.choice(sorted(set(components.values())) + ["L", "N"]),)
        elif op == "infer":
            infer = True
    return tuple(map(tuple, pd)), None if infer else components, signs, loops


def outcome(build):
    try:
        return build()
    except Exception as exc:  # compared by type and message
        return (type(exc), str(exc))


def assert_same_as_reference(crossings, components, signs, loops):
    if components is None:
        ref_components = reference_components(crossings)
        got = outcome(lambda: _with_inferred_components(crossings, signs, loops))
    else:
        ref_components = components
        got = outcome(lambda: Diagram(crossings, components, signs, loops))
    ref = outcome(lambda: reference_validate(crossings, ref_components, signs, loops))
    if isinstance(ref, tuple) or isinstance(got, tuple):
        assert got == ref
        return
    assert list(got.components.items()) == list(ref_components.items())
    assert compute_faces(got).faces == ref["faces"].faces
    assert got._corner_walk[1] == ref["face_of"]
    assert got._twin == ref["twin"]
    assert got._walks == ref["walks"]
    assert got._parts == ref["parts"]
    assert list(occurrences(got).items()) == list(ref["occ"].items())


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(range(len(BASES))),
        st.lists(st.sampled_from(OPS), max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_mutated_diagrams(self, base, ops, seed):
        assert_same_as_reference(*mutate(BASES[base], ops, random.Random(seed)))

    def test_every_mutation_is_met(self):
        """Each kind of outcome the mutations aim at occurs, so the
        comparison above covers every check."""
        rng = random.Random(19)
        seen = set()
        for k in range(3000):
            fields = mutate(BASES[k % len(BASES)], [rng.choice(OPS)], rng)
            components = fields[1] if fields[1] is not None else reference_components(fields[0])
            found = outcome(lambda: reference_validate(fields[0], components, *fields[2:]))
            seen.add(" ".join(found[1].split()[:2]) if isinstance(found, tuple) else "accepted")
        assert seen == {
            "accepted", "edge ids", "component map", "understrand changes",
            "overstrand changes", "component label", "signs length", "face traversal",
        }

    def test_pool_diagrams(self):
        for entry in POOL:
            doc = json.loads(entry["pd"])
            d = parse_diagram(entry["pd"])
            assert_same_as_reference(d.crossings, d.components, d.signs, d.loops)
            crossings = tuple(map(tuple, doc["pd"]))
            assert_same_as_reference(crossings, None, None, ())

    def test_unpaired_edges_exit_naming_them(self):
        text = json.dumps({"pd": [[1, 2, 3, 4], [4, 3, 5, 1]]})
        with pytest.raises(
            DiagramInvariantError,
            match=r"edge ids must appear exactly twice, offending: \[2, 5\]",
        ):
            parse_diagram(text)


# -- no Face object in a round trip ---------------------------------------------------


@pytest.fixture
def faces_built(monkeypatch):
    """The diagrams `compute_faces` is called on, in call order."""
    calls = []
    build = diagram.compute_faces

    def counted(d):
        calls.append(d)
        return build(d)

    monkeypatch.setattr(diagram, "compute_faces", counted)
    return calls


class TestFacesBuiltOnRead:
    def test_parse_and_isomorphism_build_no_faces(self, faces_built):
        rng = random.Random(19)
        for entry in POOL:
            d = parse_diagram(entry["pd"])
            bare = parse_diagram(json.dumps({"pd": json.loads(entry["pd"])["pd"]}))
            assert pd_isomorphic(d, bare)
            assert pd_isomorphic(d, scrambled(d, rng))
        assert faces_built == []

    @pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
    def test_a_roundtrip_item_builds_no_faces(self, faces_built):
        """Twist detection and `augment` read the corner walk, so a whole
        round-trip item builds no `Face` object."""
        rng = random.Random(19)
        for entry in POOL:
            d = parse_diagram(entry["pd"])
            regions = detect_twist_regions(d)
            augment(d, regions)
            rt = untwist_retwist_roundtrip(d, regions)
            assert pd_isomorphic(rt, d)
            d2 = parse_diagram(scrambled(d, rng).to_json())
            assert pd_isomorphic(d, d2)
            assert faces_built == []

    def test_augment_builds_no_faces_for_its_base(self, faces_built):
        d = catalog.pretzel_link([3] * 20)
        al, _ = augment(d)
        assert faces_built == []
