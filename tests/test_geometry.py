import dataclasses
import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_canonical_pd import scrambled

from augcusp import catalog
from augcusp.augment import augment
from augcusp.geometry import (
    analyze_cusp,
    assemble,
    cusp_shape,
    maximal_cusp,
    reflection_width,
    verify_meridian_bound,
)
from augcusp.errors import ConvergenceError
from augcusp.families import fal_corpus, gen_twobridge_family, twobridge_middle_circle
from augcusp.packing import build_nerve, normalize_at_vertex, solve_packing


def borromean_link():
    al, _ = augment(catalog.figure_eight())
    return al


class TestExactTwo:
    def test_minimal_fal_meridian_exactly_two(self):
        rep = analyze_cusp(borromean_link(), "0")
        assert abs(rep.shape.meridian_length - 2.0) <= 1e-6

    def test_minimal_fal_width_one(self):
        rep = analyze_cusp(borromean_link(), "0")
        assert abs(rep.width - 1.0) <= 1e-9

    def test_minimal_fal_longitude_four(self):
        rep = analyze_cusp(borromean_link(), "0")
        assert abs(rep.shape.longitude_length - 4.0) <= 1e-6

    def test_all_borromean_cusps_agree(self):
        # All three components are equivalent, whichever role they play.
        al = borromean_link()
        vals = set()
        for cusp in ("0", "C1", "C2"):
            rep = analyze_cusp(al, cusp)
            vals.add(
                (round(rep.shape.meridian_length, 9), round(rep.shape.longitude_length, 9))
            )
        assert vals == {(2.0, 4.0)}


class TestSquareCusp:
    def test_square_cusp_numbers(self):
        fam = gen_twobridge_family(1, [1])
        rep = analyze_cusp(fam.parent, twobridge_middle_circle(fam))
        s = rep.shape
        assert abs(s.height - 0.5) <= 1e-9
        assert abs(s.meridian_length - 4.0) <= 1e-6
        assert abs(s.longitude_length - 4.0) <= 1e-6
        assert abs(s.modulus - 1j) <= 1e-6
        assert all(abs(d - 1.0) <= 1e-9 for d in rep.diameters)

    def test_square_cusp_stable_in_n(self):
        for n in (2, 3):
            fam = gen_twobridge_family(n, [1] * n)
            rep = analyze_cusp(fam.parent, twobridge_middle_circle(fam))
            s = rep.shape
            assert abs(s.meridian_length - 4.0) <= 1e-6
            assert abs(s.longitude_length - 4.0) <= 1e-6
            assert abs(s.height - 0.5) <= 1e-9

    def test_family_width_two_boundary_case(self):
        fam = gen_twobridge_family(1, [1])
        rep = analyze_cusp(fam.parent, twobridge_middle_circle(fam))
        assert abs(rep.width - 2.0) <= 1e-9

    def test_knotting_cusps_of_parent_are_exactly_two(self):
        fam = gen_twobridge_family(1, [1])
        for cusp in ("0", "1"):
            rep = analyze_cusp(fam.parent, cusp)
            assert abs(rep.shape.meridian_length - 2.0) <= 1e-9


class TestScaling:
    def test_doubling_coordinates_doubles_height_keeps_lengths(self):
        al = borromean_link()
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == "0")
        norm = normalize_at_vertex(packing, eid)
        hd1 = assemble(norm, al)
        h1, _ = maximal_cusp(hd1, "0")
        s1 = cusp_shape(hd1, "0")
        doubled = dataclasses.replace(norm, center=2.0 * norm.center, radius=2.0 * norm.radius)
        hd2 = assemble(doubled, al)
        h2, _ = maximal_cusp(hd2, "0")
        s2 = cusp_shape(hd2, "0")
        assert abs(h2 - 2 * h1) <= 1e-9
        assert abs(s1.meridian_length - s2.meridian_length) <= 1e-9
        assert abs(s1.longitude_length - s2.longitude_length) <= 1e-9


class TestInvariants:
    def test_meridian_is_twice_width(self):
        for d in (catalog.figure_eight(), catalog.rational_link([2, 2, 2])):
            al, _ = augment(d)
            nerve = build_nerve(al)
            for cusp in sorted({e.cusp for e in nerve.edges if e.kind == "arc"}):
                rep = analyze_cusp(al, cusp, nerve=nerve)
                assert abs(rep.shape.meridian_length - 2 * rep.width) <= 1e-9

    def test_horoball_hemisphere_disjointness(self):
        al = borromean_link()
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == "0")
        norm = normalize_at_vertex(packing, eid)
        hd = assemble(norm, al)
        h, _ = maximal_cusp(hd, "0")
        balls = hd.horoballs["0"]
        # Every face: the whites (lines y = const) and the shaded circles
        # (lines x = const), as (centre, radius, vertical).
        faces = [(z, r, False) for z, r in zip(norm.center.tolist(), norm.radius.tolist())]
        faces += [(z, r, True) for z, r in zip(*(a.tolist() for a in norm.disks))]
        assert sum(math.isinf(r) for _, r, _ in faces) == 4
        # horoball about infinity vs all hemisphere tops
        assert all(math.isinf(r) or r <= h + 1e-9 for _, r, _ in faces)
        # finite horoballs vs hemispheres they do not sit on
        for p, diam in balls:
            for c, r, vertical in faces:
                if math.isinf(r):
                    dist = abs(p.real - c.real) if vertical else abs(p.imag - c.imag)
                    if dist > 1e-9:
                        assert dist >= diam / 2 - 1e-9
                    continue
                on_face = abs(abs(p - c) - r) <= 1e-9
                if on_face:
                    continue
                center3 = (p.real, p.imag, diam / 2)
                hemi3 = (c.real, c.imag, 0.0)
                gap = math.dist(center3, hemi3) - (diam / 2 + r)
                assert gap >= -1e-9

    def test_horoballs_pairwise_disjoint(self):
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = build_nerve(al)
        for cusp in ("0", "1"):
            eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == cusp)
            packing = solve_packing(nerve)
            norm = normalize_at_vertex(packing, eid)
            hd = assemble(norm, al)
            h, _ = maximal_cusp(hd, cusp)
            balls = hd.horoballs[cusp]
            for i in range(len(balls)):
                for j in range(i + 1, len(balls)):
                    (p, dp), (q, dq) = balls[i], balls[j]
                    assert abs(p - q) ** 2 >= dp * dq - 1e-9
                assert balls[i][1] <= h + 1e-9

    def test_cusp_area_positive_and_scale_invariant(self):
        al = borromean_link()
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == "0")
        norm = normalize_at_vertex(packing, eid)
        hd = assemble(norm, al)
        area = cusp_shape(hd, "0").torus_area
        assert area > 0
        scaled = dataclasses.replace(
            norm, center=3.0 * norm.center + (1.0 + 2.0j), radius=3.0 * norm.radius
        )
        hd2 = assemble(scaled, al)
        area2 = cusp_shape(hd2, "0").torus_area
        assert abs(area - area2) <= 1e-9


def sorted_reports(d):
    """Sorted (kind, meridian length, longitude length, height) of every cusp."""
    al, _ = augment(d)
    nerve = build_nerve(al)
    packing = solve_packing(nerve)
    reports = []
    for cusp in nerve.cusps():
        rep = analyze_cusp(al, cusp, packing=packing, nerve=nerve)
        s = rep.shape
        reports.append((rep.kind, s.meridian_length, s.longitude_length, s.height))
    # Cusp labels may change with the scramble; round the sort key so that
    # roundoff cannot reorder cusps of equal shape.
    return sorted(reports, key=lambda t: (t[0], *(round(x, 8) for x in t[1:])))


INVARIANCE = {
    "chain-13": catalog.two_bridge_chain(13),
    "pretzel-3x6": catalog.pretzel_link([3] * 6),
}


@functools.cache
def unscrambled_reports(name):
    return sorted_reports(INVARIANCE[name])


@pytest.mark.parametrize("name", sorted(INVARIANCE))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cusp_reports_invariant_under_scrambling(name, seed):
    # Fresh edge ids, shuffled crossings, crossings rotated by two.
    got = sorted_reports(scrambled(INVARIANCE[name], random.Random(seed)))
    want = unscrambled_reports(name)
    assert [t[0] for t in got] == [t[0] for t in want]
    for g, w in zip(got, want):
        for x, y in zip(g[1:], w[1:]):
            assert abs(x - y) <= 1e-10 * abs(y)


class TestBoundSuite:
    def test_generated_corpus_passes(self):
        report = verify_meridian_bound(fal_corpus(4))
        assert report["all_pass"]
        passes = [e for e in report["entries"] if e["status"] == "PASS"]
        skips = [e for e in report["entries"] if e["status"] == "SKIP"]
        assert passes, "corpus produced no measurable entries"
        assert skips, "corpus should exercise the skip path"
        for e in passes:
            assert 2.0 - 1e-9 <= e["meridian_length"] < 4.0
            assert 1.0 - 1e-9 <= e["reflection_width"] < 2.0

    def test_empty_corpus(self):
        report = verify_meridian_bound([])
        assert report == {"entries": [], "all_pass": True}

    def test_unsupported_entry_skipped_not_failed(self):
        al, _ = augment(catalog.trefoil())
        report = verify_meridian_bound([("aug-trefoil", al)])
        assert report["entries"][0]["status"] == "SKIP"
        assert report["all_pass"]

    def test_many_strand_entry_skipped_with_reason(self):
        from augcusp.families import gen_longitude_family

        report = verify_meridian_bound([("seven-strand", gen_longitude_family(0))])
        entry = report["entries"][0]
        assert entry["status"] == "SKIP"
        assert "no explicit geometry" in entry["reason"]
        assert report["all_pass"]


class TestLadders:
    @pytest.mark.parametrize(
        "diagram, exact_two",
        [
            pytest.param(catalog.two_bridge_chain(k), True, id=f"chain-{k}")
            for k in (13, 21, 41, 61, 81, 121)
        ]
        + [
            pytest.param(catalog.pretzel_link([3] * c), False, id=f"pretzel-3x{c}")
            for c in (10, 20)
        ],
    )
    def test_every_cusp_analyses(self, diagram, exact_two):
        al, _ = augment(diagram)
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        for cusp in nerve.cusps():
            rep = analyze_cusp(al, cusp, packing=packing, nerve=nerve)
            if rep.kind != "knotting":
                assert math.isfinite(rep.shape.meridian_length)
            elif exact_two:
                assert abs(rep.shape.meridian_length - 2.0) <= 1e-10
            else:
                assert 2.0 - 1e-9 <= rep.shape.meridian_length < 4.0
                assert 1.0 - 1e-9 <= rep.width < 2.0


class TestRefusal:
    def test_assemble_refuses_with_worst_residual(self):
        al, _ = augment(catalog.two_bridge_chain(9))
        nerve = build_nerve(al)
        packing = dataclasses.replace(solve_packing(nerve), tol=1e-30)
        eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == "0")
        norm = normalize_at_vertex(packing, eid)
        with pytest.raises(ConvergenceError, match="^assemble: ") as info:
            assemble(norm, al)
        assert info.value.worst_residual == norm.max_residual() > 0
