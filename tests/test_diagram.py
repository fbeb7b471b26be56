import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augcusp import catalog
from augcusp.augment import apply_filling
from augcusp.diagram import (
    Diagram,
    Face,
    FaceMap,
    TwistRegion,
    _subtangle_strands,
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
        assert len({*d.components.values(), *d.loops}) == 2

    def test_rational_two_two_is_not_the_figure_eight(self):
        d = catalog.rational_link([2, 2])
        assert len(d.crossings) == 4
        assert len({*d.components.values(), *d.loops}) == 2
        f = catalog.figure_eight()
        assert len({*f.components.values(), *f.loops}) == 1


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
        assert all(d._corner_walk[1][4 * c + k] == i for c, k in f.corners)


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
            filled = apply_filling(al, {lab: 1 for lab in al.circles})
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
        assert len(compute_faces(d).faces) == 9
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


# -- the reference: the validator as it read the crossings through three maps --


def reference_walk_chain(d, links, comp):
    """The chain region of crossings joined by the bigons of `links`
    (crossing -> its (bigon, neighbour) pairs), walked from its least end
    (its least crossing, for a cycle)."""
    ends = sorted(c for c in comp if len(links[c]) == 1)
    start = ends[0] if ends else min(comp)
    chain = [start]
    pairs: list[tuple[int, int]] = []
    prev = None
    cur = start
    while True:
        step = None
        for b, nb in links[cur]:
            if b != prev:
                step = (b, nb)
                break
        if step is None:
            break
        b, nb = step
        pairs.append(b)
        if nb == start:
            break  # cycle closed; the closing bigon is recorded
        chain.append(nb)
        prev, cur = b, nb
    if set(chain) != comp:
        raise DiagramInvariantError(
            "bigon adjacency is not a simple chain; not a reduced diagram"
        )
    n = len(chain)
    handed = reference_handed(d, chain[0])
    edge = d._edge
    return TwistRegion(
        crossings=chain,
        strand_count=2,
        full_twists=handed * (n // 2),
        half_twist=bool(n % 2),
        handedness=handed,
        is_cycle=not ends,
        bigon_edge_pairs=[
            tuple(sorted(edge[x - 3 if x & 3 == 3 else x + 1] for x in b)) for b in pairs
        ],
    )


def reference_handed(d, ci):
    return d.signs[ci] if d.signs is not None else 1


def reference_subtangle_strands(d, crossing_ids):
    """Thread the strands of a subdiagram spanned by the given crossings.

    Returns a list of strands, each a list of (crossing, role) steps where
    role is "o" or "u", ordered along the strand from its first boundary end
    (in dart order) to the other.
    """
    S = set(crossing_ids)
    twin = d._twin
    ends = [
        x for c in sorted(S) for x in range(4 * c, 4 * c + 4) if twin[x] >> 2 not in S
    ]
    if len(ends) % 2:
        raise DiagramInvariantError("open strand end inside annotation")
    strands = []
    done: set[int] = set()
    for x in ends:
        if x in done:
            continue
        path = []
        while True:
            path.append((x >> 2, "o" if x & 1 else "u"))
            x ^= 2
            if twin[x] >> 2 not in S:
                break
            x = twin[x]
        done.add(x)  # the far end: the strand is traced from one end only
        strands.append(path)
    return strands


def reference_validate_generalized_region(d, crossing_ids, strand_count=None):
    """Check that the annotated crossings form an m-strand ribbon twist.

    A full twist contributes m(m-1) crossings with every strand pair
    crossing twice; a half twist adds m(m-1)/2 with every pair crossing
    once and alternating over/under along each strand.  Returns the region
    with (m, full twists, half twist) on success.
    """
    ids = sorted(set(crossing_ids))
    if len(ids) != len(crossing_ids):
        raise DiagramInvariantError("annotation repeats a crossing")
    for c in ids:
        if not 0 <= c < len(d.crossings):
            raise DiagramInvariantError(f"annotation names crossing {c} not in diagram")
    strands = reference_subtangle_strands(d, ids)
    m = len(strands)
    if m == 0:
        # The annotation swallows a closed subdiagram (a cyclic bigon chain);
        # defer to the two-strand chain detector.
        for reg in detect_twist_regions(d):
            if sorted(reg.crossings) == ids:
                if strand_count not in (None, 2):
                    raise DiagramInvariantError(
                        f"closed chain has 2 strands, expected {strand_count}"
                    )
                return reg
        raise DiagramInvariantError(
            "annotation bounds no strands and is not a bigon chain"
        )
    if strand_count is not None and m != strand_count:
        raise DiagramInvariantError(
            f"annotation has {m} strands, expected {strand_count}"
        )
    if m < 2:
        raise DiagramInvariantError("a twist region needs at least two strands")
    n = len(ids)
    # Candidate (t, half) from the crossing count.
    per_full = m * (m - 1)
    per_half = per_full // 2
    t, rem = divmod(n, per_full)
    half = rem == per_half
    if rem and not half:
        offender = ids[0]
        raise DiagramInvariantError(
            f"{n} crossings is not t full + half ribbon twists of {m} strands "
            f"(first offending crossing {offender})"
        )
    # Every unordered strand pair must meet exactly 2t + (1 if half) times.
    pair_counts: dict[frozenset, int] = {}
    strand_of: dict[int, list[int]] = {}
    for si, path in enumerate(strands):
        for c, _ in path:
            strand_of.setdefault(c, []).append(si)
    for c, ss in strand_of.items():
        if len(ss) != 2:
            raise DiagramInvariantError(
                f"crossing {c} is not met by exactly two annotation strands"
            )
        pair_counts[frozenset(ss)] = pair_counts.get(frozenset(ss), 0) + 1
    want = 2 * t + (1 if half else 0)
    for pair, cnt in sorted(pair_counts.items()):
        if cnt != want:
            offender = min(c for c, ss in strand_of.items() if frozenset(ss) == pair)
            raise DiagramInvariantError(
                f"strand pair crosses {cnt} times, ribbon pattern needs {want} "
                f"(first offending crossing {offender})"
            )
    if len(pair_counts) != m * (m - 1) // 2 and want > 0:
        raise DiagramInvariantError("some strand pairs never cross")
    # In a ribbon twist every pair alternates who passes over: t times each
    # per t full twists, with a half twist adding one unbalanced crossing.
    over_of: dict[tuple[int, int], int] = {}
    role_at: dict[int, dict[int, str]] = {}
    for si, path in enumerate(strands):
        for c, r in path:
            role_at.setdefault(c, {})[si] = r
    for c, by_strand in role_at.items():
        if len(by_strand) != 2:
            raise DiagramInvariantError(
                f"crossing {c}: one annotation strand passes it twice"
            )
        (s1, r1), (s2, r2) = sorted(by_strand.items())
        if r1 == r2:
            raise DiagramInvariantError(
                f"crossing {c}: both strands claim the same role"
            )
        over = s1 if r1 == "o" else s2
        under = s2 if over == s1 else s1
        over_of[(over, under)] = over_of.get((over, under), 0) + 1
    for pair in sorted(pair_counts):
        i, j = sorted(pair)
        diff = abs(over_of.get((i, j), 0) - over_of.get((j, i), 0))
        if diff > (1 if half else 0):
            offender = min(c for c, ss in strand_of.items() if frozenset(ss) == pair)
            raise DiagramInvariantError(
                "over and under passes are unbalanced: not a ribbon twist "
                f"(first offending crossing {offender})"
            )
    # For two strands also demand alternation (rules out reducible pairs),
    # and return the bigon chain in order, with its bigons, as detected.
    if m == 2:
        for path in strands:
            roles = [r for _, r in path]
            for a, b in zip(roles, roles[1:]):
                if a == b:
                    raise DiagramInvariantError(
                        "strand does not alternate over and under: reducible "
                        f"pair (first offending crossing {path[0][0]})"
                    )
        if n > 1:
            links: dict = {c: [] for c in ids}
            for b in d._bigons:
                c1, c2 = b[0] >> 2, b[1] >> 2
                if c1 in links and c2 in links:
                    links[c1].append((b, c2))
                    links[c2].append((b, c1))
            return reference_walk_chain(d, links, set(ids))
    handed = reference_handed(d, ids[0])
    return TwistRegion(
        crossings=list(ids),
        strand_count=m,
        full_twists=handed * t,
        half_twist=half,
        handedness=handed,
    )


def passes_twice(d, ids):
    """Whether a strand of the reference threading passes a crossing twice."""
    strands = reference_subtangle_strands(d, ids)
    return any(len({c for c, _ in path}) < len(path) for path in strands)


def validation_outcome(validate, d, ids, strand_count):
    try:
        return validate(d, ids, strand_count)
    except DiagramInvariantError as exc:
        return str(exc)


def compare_with_reference(d, ids, strand_count, tally):
    """Validate ids on d and with the reference, and count in tally how the
    two agree: the same region or message ("same"), a region that detection
    finds through a nugatory crossing, which only the package accepts
    ("nugatory"), two "strand pair crosses" messages that may name
    different pairs where a strand passes a crossing twice ("twice"), or
    annotated crossings that are not one bigon chain, which the package
    names where the reference blames the diagram ("chain")."""
    got = validation_outcome(validate_generalized_region, d, ids, strand_count)
    want = validation_outcome(reference_validate_generalized_region, d, ids, strand_count)
    if got == want:
        kind = "same"
    elif isinstance(got, TwistRegion):
        assert want in ("a twist region needs at least two strands",
                        "annotation has 1 strands, expected 2"), (ids, strand_count, want)
        assert len(_subtangle_strands(d, ids)) == 1
        assert got in detect_twist_regions(d) and sorted(got.crossings) == ids
        kind = "nugatory"
    elif want == "bigon adjacency is not a simple chain; not a reduced diagram":
        assert got == f"annotated crossings {ids} are not one bigon chain"
        kind = "chain"
    else:
        assert isinstance(want, str) and passes_twice(d, ids), (ids, strand_count, got, want)
        assert got.startswith("strand pair crosses ") and want.startswith("strand pair crosses ")
        kind = "twice"
    tally[kind] = tally.get(kind, 0) + 1


def _embedded_ribbon(m, t, half):
    word = full_ribbon_braid(m, t)
    if half:
        word += half_ribbon_braid(m, 1)
    n = len(word)
    return catalog.braid_closure(m, word + full_ribbon_braid(m, 1)), n


RIBBONS = [(m, t, half) for m in range(2, 6) for t in range(3) for half in (False, True)
           if t or half]


class TestGeneralizedRegions:
    def test_five_strand_full_twist(self):
        d, n = _embedded_ribbon(5, 1, False)
        r = validate_generalized_region(d, list(range(n)))
        assert (r.strand_count, abs(r.full_twists), r.half_twist) == (5, 1, False)
        assert r == reference_validate_generalized_region(d, list(range(n)))

    def test_five_strand_half_twist(self):
        d, n = _embedded_ribbon(5, 0, True)
        r = validate_generalized_region(d, list(range(n)))
        assert (r.strand_count, r.full_twists, r.half_twist) == (5, 0, True)
        assert r == reference_validate_generalized_region(d, list(range(n)))

    @pytest.mark.parametrize("m, t, half", RIBBONS)
    def test_ribbon_closure_subsets_validate_like_the_reference(self, m, t, half):
        # Every crossing subset of a closure of at most 14 crossings, else
        # the twist, 300 random subsets and the runs of every third length
        # from every third crossing; each with no strand count, 2 and 3.
        d, n = _embedded_ribbon(m, t, half)
        total = len(d.crossings)
        if total <= 14:
            subsets = [[c for c in range(total) if mask >> c & 1] for mask in range(1, 1 << total)]
        else:
            rng = random.Random(m * 100 + t * 10 + half)
            subsets = [list(range(n))]
            subsets += [sorted(rng.sample(range(total), rng.randint(1, total))) for _ in range(300)]
            subsets += [list(range(a, b)) for a in range(0, total, 3)
                        for b in range(a + 1, total + 1, 3)]
        tally = {}
        for ids in subsets:
            for strand_count in (None, 2, 3):
                compare_with_reference(d, ids, strand_count, tally)
        assert validate_generalized_region(d, list(range(n))).strand_count == m
        assert "nugatory" not in tally

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

    @pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
    def test_every_crossing_subset_validates_or_is_refused(self):
        # Every subset, also with a repeated and with an out-of-range id,
        # and each with no strand count, 2 and 3, validates as the reference
        # does, but for the chains through a nugatory crossing of the
        # even-length rational links, for which failing pair is named
        # where a strand passes a crossing twice (as some subsets of
        # rational[2, 3, 3] and rational[3, 3, 2] do), and for two-strand
        # annotations that are not one bigon chain, which the reference
        # blames on the diagram (118 subsets, with no strand count and 2).
        diagrams = [
            catalog.rational_link(list(v))
            for n in (1, 2, 3)
            for v in itertools.product((1, 2, 3), repeat=n)
        ]
        diagrams += [
            catalog.pretzel_link(list(v)) for v in itertools.product((-3, -2, 2, 3), repeat=3)
        ]
        checked = 0
        tally = {}
        for d in diagrams:
            n = len(d.crossings)
            for mask in range(1, 1 << n):
                ids = [c for c in range(n) if mask >> c & 1]
                for strand_count in (None, 2, 3):
                    compare_with_reference(d, ids, strand_count, tally)
                    for bad in (ids + ids[:1], ids + [n]):
                        assert validation_outcome(
                            validate_generalized_region, d, bad, strand_count
                        ) == validation_outcome(
                            reference_validate_generalized_region, d, bad, strand_count
                        )
                checked += 1
        assert (len(diagrams), checked) == (103, 16675)
        assert tally == {"same": 48746, "nugatory": 24, "twice": 1019, "chain": 236}

    def test_two_strands_that_are_not_one_bigon_chain_blame_the_annotation(self):
        # Detection reads this diagram fine: its regions are [0, 1] and [2, 3, 4].
        d = catalog.rational_link([1, 1, 3])
        assert [r.crossings for r in detect_twist_regions(d)] == [[0, 1], [2, 3, 4]]
        with pytest.raises(DiagramInvariantError) as exc:
            validate_generalized_region(d, [0, 2, 3, 4])
        assert str(exc.value) == "annotated crossings [0, 2, 3, 4] are not one bigon chain"

    def test_strand_through_a_crossing_twice_is_refused(self):
        d = catalog.rational_link([2, 3, 3])
        with pytest.raises(DiagramInvariantError, match="crossing 3: one annotation strand"):
            validate_generalized_region(d, [0, 2, 1, 7, 3, 6])


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
