import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augcusp import catalog
from augcusp.augment import SlopeLedger, apply_filling
from augcusp.diagram import (
    Diagram,
    Face,
    FaceMap,
    compute_faces,
    detect_twist_regions,
    full_ribbon_braid,
    half_ribbon_braid,
    parse_diagram,
    pd_isomorphic,
    validate_generalized_region,
)
from augcusp.errors import DiagramInvariantError, PDSyntaxError, ReducibleDiagramWarning
from augcusp.families import fal_corpus
from test_canonical_pd import occurrences, scrambled


def brute_force_faces(d):
    """Independent face oracle: faces of an embedded graph are the orbits of
    rotation-after-involution on outgoing edge ends."""
    occ = {}
    for ci, cr in enumerate(d.crossings):
        for s, e in enumerate(cr):
            occ.setdefault(e, []).append((ci, s))

    def twin(dart):
        a, b = occ[d.crossings[dart[0]][dart[1]]]
        return b if a == dart else a

    darts = {(ci, s) for ci in range(len(d.crossings)) for s in range(4)}
    count = 0
    while darts:
        start = min(darts)
        cur = start
        while True:
            darts.discard(cur)
            c2, s2 = twin(cur)
            cur = (c2, (s2 + 1) % 4)
            if cur == start:
                break
        count += 1
    return count


class TestParse:
    def test_trefoil_roundtrip_and_euler(self):
        d = catalog.trefoil()
        d2 = parse_diagram(d.to_json())
        assert d2.crossings == d.crossings
        fm = compute_faces(d2)
        v, e, f = 3, 6, len(fm.faces)
        assert v - e + f == 2
        assert f == brute_force_faces(d2)

    def test_kink_is_minimal_legal_input(self):
        d = catalog.unknot_kink()
        assert len(d.crossings) == 1
        assert len(compute_faces(d).faces) == 3

    def test_edge_appearing_once_rejected(self):
        with pytest.raises((PDSyntaxError, DiagramInvariantError)):
            parse_diagram(json.dumps({"pd": [[1, 2, 3, 4], [4, 3, 2, 5]]}))

    def test_empty_input_rejected(self):
        with pytest.raises(PDSyntaxError):
            parse_diagram("")
        with pytest.raises(PDSyntaxError):
            parse_diagram("   ")

    def test_malformed_json_rejected(self):
        with pytest.raises(PDSyntaxError):
            parse_diagram("{nope")

    def test_components_inferred_and_checked(self):
        d = catalog.figure_eight()
        doc = json.loads(d.to_json())
        del doc["components"]
        d2 = parse_diagram(json.dumps(doc))
        assert len(set(d2.components.values())) == 1

    def test_label_shared_by_two_components_rejected(self):
        doc = json.loads(catalog.two_bridge_chain(5).to_json())
        doc["components"] = {e: "0" for e in doc["components"]}
        with pytest.raises(DiagramInvariantError, match="label '0' is carried by two"):
            parse_diagram(json.dumps(doc))

    @pytest.mark.parametrize("loops", [["0"], ["L", "L"]])
    def test_loop_label_carried_twice_rejected(self, loops):
        doc = json.loads(catalog.trefoil().to_json())
        doc["loops"] = loops
        with pytest.raises(DiagramInvariantError, match="is carried by two separate"):
            parse_diagram(json.dumps(doc))

    @pytest.mark.parametrize("edge", [1.5, 2.0, True, False, "3", None, [1]], ids=repr)
    def test_edge_id_that_is_not_an_integer_rejected(self, edge):
        """int() would read 1.5 and true as 1; only JSON integers are ids."""
        pd = [[2, 1, 3, 4], [4, 3, 5, 6], [6, 5, 1, edge]]
        with pytest.raises(PDSyntaxError, match="edge ids must be integers"):
            parse_diagram(json.dumps({"pd": pd}))

    def test_bad_signs_rejected(self):
        doc = json.loads(catalog.trefoil().to_json())
        doc["signs"] = [1, 2, 1]
        with pytest.raises(PDSyntaxError):
            parse_diagram(json.dumps(doc))


class TestCatalog:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_two_bridge_chain_has_two_components(self, k):
        d = catalog.two_bridge_chain(k)
        assert len(d.crossings) == 2 * k
        assert len(d.component_labels) == 2

    def test_rational_two_two_is_not_the_figure_eight(self):
        d = catalog.rational_link([2, 2])
        assert len(d.crossings) == 4
        assert len(d.component_labels) == 2
        assert len(catalog.figure_eight().component_labels) == 1


class TestFaces:
    def test_trefoil_faces_and_bigons(self):
        d = catalog.trefoil()
        assert len(compute_faces(d).faces) == 5
        assert len(d._bigons) == 3

    def test_figure_eight_faces(self):
        d = catalog.figure_eight()
        fm = compute_faces(d)
        assert len(fm.faces) == 6
        assert len(d._bigons) == 2
        assert brute_force_faces(d) == 6

    def test_zero_bigon_diagram(self):
        assert catalog.borromean_rings()._bigons == []

    def test_every_edge_on_two_face_sides(self):
        for d in (catalog.trefoil(), catalog.figure_eight(), catalog.borromean_rings()):
            fm = compute_faces(d)
            counts = {}
            for f in fm.faces:
                for e in f.boundary:
                    counts[e] = counts.get(e, 0) + 1
            assert all(v == 2 for v in counts.values())

    def test_oracle_agreement_catalog(self):
        for d in (
            catalog.rational_link([2, 2, 2]),
            catalog.pretzel_link([3, 3, 2]),
            catalog.pretzel_link([2, 2, 2, 2]),
        ):
            assert len(compute_faces(d).faces) == brute_force_faces(d)


def reference_faces(d):
    """Reference: the quadratic walk that starts each face at the least
    corner not yet visited."""
    twin = {}
    for a, b in occurrences(d).values():
        twin[a], twin[b] = b, a
    unvisited = {(ci, k) for ci in range(len(d.crossings)) for k in range(4)}
    faces = []
    while unvisited:
        start = corner = min(unvisited)
        corners, boundary = [], []
        while True:
            corners.append(corner)
            unvisited.discard(corner)
            ci, k = corner
            boundary.append(d.crossings[ci][(k + 1) % 4])
            corner = twin[(ci, (k + 1) % 4)]
            if corner == start:
                break
        faces.append(Face(tuple(corners), tuple(boundary)))
    return FaceMap(tuple(faces))


def assert_faces_match_reference(d):
    fm = compute_faces(d)
    assert fm.faces == reference_faces(d).faces
    firsts = [f.corners[0] for f in fm.faces]
    assert firsts == sorted(firsts)
    assert all(f.corners[0] == min(f.corners) for f in fm.faces)
    for i, f in enumerate(fm.faces):
        assert all(fm.corner_faces[4 * c + k] == i for c, k in f.corners)


class TestFaceWalk:
    @pytest.mark.parametrize("k", [5, 9, 13, 21, 31, 41, 61, 81, 121])
    def test_chain_ladder_matches_reference(self, k):
        assert_faces_match_reference(catalog.two_bridge_chain(k))

    def test_pretzel_ladder_matches_reference(self):
        for c in range(10, 61):
            assert_faces_match_reference(catalog.pretzel_link([3] * c))

    def test_fal_corpus_matches_reference(self):
        for _, al in fal_corpus(4):
            assert_faces_match_reference(al.base)
            filled = apply_filling(al, SlopeLedger({lab: 1 for lab in al.circles}))
            assert_faces_match_reference(filled)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3, 4]), min_size=1, max_size=5)
            .map(catalog.rational_link),
            st.lists(st.sampled_from([-3, -2, 2, 3, 4]), min_size=2, max_size=6)
            .map(catalog.pretzel_link),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_scrambled_diagrams_match_reference(self, d, seed):
        assert_faces_match_reference(scrambled(d, random.Random(seed)))

    def test_split_diagram_has_two_parts(self):
        # A trefoil and a Hopf link side by side: V - E + F = 4 = 2 * parts.
        pd = [[1, 5, 2, 4], [3, 1, 4, 6], [5, 3, 6, 2], [7, 9, 8, 10], [9, 7, 10, 8]]
        d = parse_diagram(json.dumps({"pd": pd}))
        assert len(d.face_map.faces) == 9
        assert sorted(map(sorted, d._parts)) == [[0, 1, 2], [3, 4]]

    def test_non_planar_pd_rejected(self):
        pd = [[1, 5, 2, 4], [3, 6, 4, 1], [5, 2, 6, 3]]
        with pytest.raises(DiagramInvariantError, match="V-E\\+F = 0"):
            parse_diagram(json.dumps({"pd": pd}))


class TestTwistRegions:
    def test_trefoil_single_region(self):
        regs = detect_twist_regions(catalog.trefoil())
        assert len(regs) == 1
        r = regs[0]
        assert r.crossing_count == 3
        assert abs(r.full_twists) == 1
        assert r.half_twist

    def test_figure_eight_two_regions(self):
        regs = detect_twist_regions(catalog.figure_eight())
        assert sorted(r.crossing_count for r in regs) == [2, 2]
        assert all(not r.half_twist for r in regs)

    def test_kink_singleton(self):
        regs = detect_twist_regions(catalog.unknot_kink())
        assert len(regs) == 1
        assert regs[0].crossing_count == 1
        assert regs[0].half_twist

    def test_regions_partition_crossings(self):
        for d in (
            catalog.trefoil(),
            catalog.figure_eight(),
            catalog.rational_link([2, 3, 2]),
            catalog.pretzel_link([3, 3, 3]),
        ):
            regs = detect_twist_regions(d)
            seen = sorted(c for r in regs for c in r.crossings)
            assert seen == list(range(len(d.crossings)))

    def test_determinism(self):
        d = catalog.rational_link([2, 3, 2])
        a = [tuple(r.crossings) for r in detect_twist_regions(d)]
        b = [tuple(r.crossings) for r in detect_twist_regions(d)]
        assert a == b

    def test_nonalternating_chain_warns_and_splits(self):
        # sigma sigma^-1 makes a reducible (non-alternating) bigon.
        d = catalog.braid_closure(2, [(1, 1), (1, -1), (1, 1), (1, 1)])
        with pytest.warns(ReducibleDiagramWarning):
            regs = detect_twist_regions(d)
        assert sorted(c for r in regs for c in r.crossings) == list(
            range(len(d.crossings))
        )

    def test_maximality(self):
        # No bigon may join two distinct returned regions.
        for d in (catalog.figure_eight(), catalog.rational_link([2, 2, 2])):
            regs = detect_twist_regions(d)
            region_of = {}
            for i, r in enumerate(regs):
                for c in r.crossings:
                    region_of[c] = i
            for x, y in d._bigons:
                assert region_of[x >> 2] == region_of[y >> 2]


def _embedded_ribbon(m, t, half):
    word = full_ribbon_braid(m, t)
    if half:
        word += half_ribbon_braid(m, 1)
    n = len(word)
    return catalog.braid_closure(m, word + full_ribbon_braid(m, 1)), n


class TestGeneralizedRegions:
    def test_five_strand_full_twist(self):
        d, n = _embedded_ribbon(5, 1, False)
        r = validate_generalized_region(d, list(range(n)))
        assert (r.strand_count, abs(r.full_twists), r.half_twist) == (5, 1, False)

    def test_five_strand_half_twist(self):
        d, n = _embedded_ribbon(5, 0, True)
        r = validate_generalized_region(d, list(range(n)))
        assert (r.strand_count, r.full_twists, r.half_twist) == (5, 0, True)

    def test_two_strand_agrees_with_detection(self):
        d = catalog.figure_eight()
        regs = detect_twist_regions(d)
        for reg in regs:
            r = validate_generalized_region(d, reg.crossings)
            assert r.strand_count == 2
            assert r.half_twist == reg.half_twist
            assert abs(r.full_twists) == abs(reg.full_twists)

    def test_rejection_reports_offender(self):
        # Three crossings spanning both regions of the figure eight cannot
        # form a ribbon twist pattern.
        d = catalog.figure_eight()
        with pytest.raises(DiagramInvariantError, match="offending crossing"):
            validate_generalized_region(d, [0, 1, 2])

    def test_sub_chain_of_torus_region_is_a_valid_choice(self):
        # The choice of twist regions is not unique: two adjacent crossings
        # of the trefoil's chain form a legitimate two-strand full twist.
        d = catalog.trefoil()
        r = validate_generalized_region(d, [0, 1])
        assert (r.strand_count, abs(r.full_twists), r.half_twist) == (2, 1, False)


class TestIsomorphism:
    def test_relabeled_is_isomorphic(self):
        d = catalog.trefoil()
        shuffled = Diagram(
            tuple(tuple(e + 10 for e in cr) for cr in d.crossings),
            {e + 10: lab for e, lab in d.components.items()},
        )
        assert pd_isomorphic(d, shuffled)

    def test_different_links_not_isomorphic(self):
        assert not pd_isomorphic(catalog.trefoil(), catalog.figure_eight())

    def test_rotation_by_two_allowed(self):
        d = catalog.trefoil()
        rotated = Diagram(
            (d.crossings[0],)
            + tuple((c[2], c[3], c[0], c[1]) for c in d.crossings[1:]),
            dict(d.components),
        )
        assert pd_isomorphic(d, rotated)
