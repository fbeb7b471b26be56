import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import platform
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import THREAD_VARS
from test_canonical_pd import scrambled

from augcusp import catalog, geometry
from augcusp.augment import augment
from augcusp.geometry import (
    analyze_cusp,
    assemble,
    cusp_shape,
    maximal_cusp,
    verify_meridian_bound,
)
from augcusp.errors import (
    AugcuspError,
    ConvergenceError,
    DiagramInvariantError,
    MeasuringError,
    PDSyntaxError,
    UnsupportedLinkError,
)
from augcusp.families import fal_corpus, gen_twobridge_family, twobridge_middle_circle
from augcusp.packing import CirclePacking, build_nerve, normalize_at_vertex, solve_packing


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

    def test_family_without_middle_circle_rejected(self):
        fam = gen_twobridge_family(1, [1])
        with pytest.raises(DiagramInvariantError, match="no middle circle"):
            twobridge_middle_circle(dataclasses.replace(fam, labels={}))

    def test_knotting_cusps_of_parent_are_exactly_two(self):
        fam = gen_twobridge_family(1, [1])
        for cusp in ("0", "1"):
            rep = analyze_cusp(fam.parent, cusp)
            assert abs(rep.shape.meridian_length - 2.0) <= 1e-9


class TestScaling:
    def test_doubling_the_strip_gives_the_same_frame(self):
        # Scaling the strip by 2, its low parts too, is exact, and
        # normalize_at_vertex maps both strips to the same unit strip, bit
        # for bit.  (A cusp frame scaled by hand is refused, see
        # TestMeasuringErrors.)
        for link in (borromean_link(), augment(catalog.pretzel_link([3] * 10))[0]):
            nerve = build_nerve(link)
            packing = solve_packing(nerve)
            strip = dataclasses.replace(
                packing, center=2 * packing.center, radius=2 * packing.radius,
                lo=tuple(2 * x for x in packing.lo),
            )
            for eid in (nerve.cusp_edges[c][0] for c in nerve.cusps()):
                norm, doubled = normalize_at_vertex(packing, eid), normalize_at_vertex(strip, eid)
                for got, want in ((doubled.center, norm.center), (doubled.radius, norm.radius)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert cusp_shape(assemble(doubled)) == cusp_shape(assemble(norm))


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
        h, _, balls = maximal_cusp(assemble(norm))
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
            h, _, balls = maximal_cusp(assemble(norm))
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
        area = cusp_shape(assemble(norm)).torus_area
        assert area > 0
        # Not exact in double-double: a float64 copy, lo=None.
        scaled = dataclasses.replace(
            packing, center=3 * packing.center + (1 + 2j), radius=3 * packing.radius, lo=None
        )
        area2 = cusp_shape(assemble(normalize_at_vertex(scaled, eid))).torus_area
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
        assert report == {"entries": [], "all_pass": False}

    def test_unsupported_entry_skipped_not_failed(self):
        # A corpus that measured nothing does not pass; a skip beside a
        # pass does not fail it.
        al, _ = augment(catalog.trefoil())
        report = verify_meridian_bound([("aug-trefoil", al)])
        assert report["entries"][0]["status"] == "SKIP"
        assert not report["all_pass"]
        report = verify_meridian_bound([("aug-trefoil", al), ("borromean", borromean_link())])
        assert [e["status"] for e in report["entries"]] == ["SKIP", "PASS"]
        assert report["all_pass"]

    def test_many_strand_entry_skipped_with_reason(self):
        from augcusp.families import gen_longitude_family

        report = verify_meridian_bound([("seven-strand", gen_longitude_family(0))])
        entry = report["entries"][0]
        assert entry["status"] == "SKIP"
        assert "no explicit geometry" in entry["reason"]
        assert not report["all_pass"]


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


def test_pretzel_ladder_meridians_have_closed_forms():
    """pretzel_link([3] * c): every crossing-circle cusp has meridian length
    sqrt(8 + 4 tan^2(pi / c)).  Odd c has one knotting cusp, of meridian
    length 2; even c has two, at the circles' closed form.  The knotting
    cusps carry the error of their horoball heights, up to 8.0e-14 (c = 59)."""
    for c in range(5, 61):
        al, _ = augment(catalog.pretzel_link([3] * c))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        form = math.sqrt(8 + 4 * math.tan(math.pi / c) ** 2)
        knotting = []
        for cusp in nerve.cusps():
            rep = analyze_cusp(al, cusp, packing=packing)
            m = rep.shape.meridian_length
            if rep.kind == "circle":
                assert abs(m - form) <= 2e-15 * form, (c, cusp)
            else:
                knotting.append(m)
        want = [2.0] if c % 2 else [form, form]
        assert len(knotting) == len(want), c
        assert all(abs(m - w) <= 1e-12 * w for m, w in zip(knotting, want)), (c, knotting)


GOLDEN = Path(__file__).resolve().parent / "data" / "ladder_reports.json"
GOLDEN_LINKS = {
    "chain-5": lambda: catalog.two_bridge_chain(5),
    "chain-13": lambda: catalog.two_bridge_chain(13),
    "chain-41": lambda: catalog.two_bridge_chain(41),
    "pretzel-3x10": lambda: catalog.pretzel_link([3] * 10),
    "pretzel-3x20": lambda: catalog.pretzel_link([3] * 20),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LINKS))
def test_reports_match_the_recorded_ladder_reports(name):
    """Every scalar field of every cusp, against the reports recorded in
    tests/data/ladder_reports.json before the flower-by-flower layout, to
    1e-11 relative (of the field's norm for a complex one).  With edge 0
    at infinity, one and two BLAS threads differed by up to 2.2e-12.
    Witness strings, which may name either of tied candidates, and circle
    diameters are not kept."""
    want = json.loads(GOLDEN.read_text())[name]
    al, _ = augment(GOLDEN_LINKS[name]())
    nerve = build_nerve(al)
    packing = solve_packing(nerve)
    assert sorted(want) == nerve.cusps()
    for cusp, fields in want.items():
        got = analyze_cusp(al, cusp, packing=packing, nerve=nerve).to_dict()
        for key, value in fields.items():
            a, b = np.atleast_1d(got[key]), np.atleast_1d(value)
            assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b), (cusp, key)


# sha256 over the report JSON of every cusp of the GOLDEN_LINKS, chain-121
# and pretzel 3x60, floats as their reprs: a change to any report bit must
# re-pin it.  The strip and the map use IEEE float64 arithmetic alone, but
# numpy's exp, arctan, hypot and LU solve may round otherwise elsewhere, so
# the digest is checked only on the platform where it was taken.
REPORT_SHA = "4732e4abd9f3e8690b0f8bcb23a75c44bd677073f55581c9219626ff4b8f9b87"


@pytest.mark.skipif(
    (sys.platform, platform.machine()) != ("linux", "x86_64"),
    reason="the digest was taken on x86-64 Linux",
)
def test_report_bits_are_unchanged():
    links = {**GOLDEN_LINKS, "chain-121": lambda: catalog.two_bridge_chain(121),
             "pretzel-3x60": lambda: catalog.pretzel_link([3] * 60)}
    sha = hashlib.sha256()
    for name in sorted(links):
        nerve = build_nerve(augment(links[name]())[0])
        reports = geometry._analyze(solve_packing(nerve), nerve.cusps())
        doc = {c: r.to_dict() for c, r in reports.items()}
        sha.update(json.dumps([name, doc], sort_keys=True).encode())
    assert sha.hexdigest() == REPORT_SHA


# Prints the report of every cusp of chain-21 and pretzel 3x10 as JSON,
# whose floats are their reprs, so equal text is equal bits.
BLAS_CHILD = """
import json, sys
from augcusp import catalog, geometry
from augcusp.augment import augment
from augcusp.packing import build_nerve, solve_packing
out = {}
for name, d in (("chain-21", catalog.two_bridge_chain(21)),
                ("pretzel-3x10", catalog.pretzel_link([3] * 10))):
    nerve = build_nerve(augment(d)[0])
    reports = geometry._analyze(solve_packing(nerve), nerve.cusps())
    out[name] = {c: r.to_dict() for c, r in reports.items()}
json.dump(out, sys.stdout, sort_keys=True)
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    """With the widest tangency at infinity, chain-21's strip is exact and
    pretzel 3x10's needs no thread-dependent solve: every report is the
    same, bit for bit, with numpy's BLAS on one thread and on two."""
    src = str(Path(geometry.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, **dict.fromkeys(THREAD_VARS, threads), "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_CHILD], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    reports = json.loads(outputs[0])
    assert {name: len(cusps) for name, cusps in reports.items()} == {
        "chain-21": 23, "pretzel-3x10": 12,
    }
    assert outputs[0] == outputs[1]


class TestRefusal:
    def test_assemble_refuses_with_worst_residual(self):
        al, _ = augment(catalog.two_bridge_chain(9))
        nerve = build_nerve(al)
        packing = dataclasses.replace(solve_packing(nerve), tol=1e-30)
        eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == "0")
        norm = normalize_at_vertex(packing, eid)
        with pytest.raises(ConvergenceError, match="^assemble: ") as info:
            assemble(norm)
        assert info.value.worst_residual == norm.max_residual() > 0


class TestMeasuringErrors:
    @pytest.fixture(scope="class")
    def norm(self):
        nerve = build_nerve(borromean_link())
        return normalize_at_vertex(solve_packing(nerve), nerve.cusp_edges["0"][0])

    @pytest.mark.parametrize("error, base", [
        (PDSyntaxError, ValueError), (DiagramInvariantError, ValueError),
        (UnsupportedLinkError, ValueError), (ConvergenceError, RuntimeError),
        (MeasuringError, ValueError),
    ])
    def test_package_errors_share_one_base(self, error, base):
        assert issubclass(error, AugcuspError) and issubclass(error, base)

    def test_frame_off_the_unit_strip_refused(self, norm):
        # Shifted or scaled by hand, a cusp frame keeps its record but not
        # its lines at y = 0 and y = 1.
        shifted = dataclasses.replace(norm, center=norm.center + 1j)
        doubled = dataclasses.replace(norm, center=2 * norm.center, radius=2 * norm.radius)
        for frame in (shifted, doubled):
            for measure in (assemble, cusp_shape, maximal_cusp, geometry.cusp_lattice):
                with pytest.raises(MeasuringError, match="lines must be y = 0 and y = 1"):
                    measure(frame)

    def test_unnormalized_packing_refused(self, norm):
        # A frame with no record, and the strip packing itself: its edge at
        # infinity is a cusp's too, but only normalize_at_vertex makes a
        # cusp frame.
        bare = dataclasses.replace(norm, normalization={})
        strip = solve_packing(build_nerve(augment(catalog.pretzel_link([3, 3, 3, 2]))[0]))
        assert strip.nerve.edges[strip.normalization["infinity_edge"]].cusp == "0"
        for packing in (bare, strip):
            for measure in (assemble, cusp_shape, maximal_cusp, geometry.cusp_lattice):
                with pytest.raises(MeasuringError, match="must be normalized"):
                    measure(packing)

    def test_lift_off_infinity_refused(self, norm):
        # Another edge's lifts are shaded circles, not vertical lines.
        moved = dataclasses.replace(
            norm, normalization={**norm.normalization, "infinity_edge": 1}
        )
        assert assemble(moved) is moved
        with pytest.raises(MeasuringError, match="lift at the cusp is not vertical"):
            geometry.cusp_lattice(moved)


LADDER = {
    **{f"chain-{k}": functools.partial(catalog.two_bridge_chain, k)
       for k in (5, 9, 13, 21, 31, 41, 61, 81, 121)},
    **{f"pretzel-3x{c}": functools.partial(catalog.pretzel_link, [3] * c)
       for c in (10, 20, 30, 40, 60)},
}


def knotting_blocks():
    """Per knotting cusp of chain-5, 13, 21, pretzel 3x10, 3x20 and
    fal_corpus(4), the block of its frames with each of its edges at
    infinity in turn."""
    links = [augment(d)[0] for d in (
        *(catalog.two_bridge_chain(k) for k in (5, 13, 21)),
        *(catalog.pretzel_link([3] * c) for c in (10, 20)),
    )] + [al for _name, al in fal_corpus(4)]
    for al in links:
        try:
            nerve = build_nerve(al)
        except UnsupportedLinkError:
            continue
        packing = solve_packing(nerve)
        for cusp in nerve.knotting_cusps:
            yield normalize_at_vertex(packing, np.array(nerve.cusp_edges[cusp], dtype=np.intp))


class TestLongitudeWalk:
    def test_every_edge_of_a_knotting_cusp_walks_its_lattice(self):
        # Reports walk from a cusp's least edge; here each of its edges is
        # put at infinity in turn, so walks run from every arc of the chain.
        # The horoball search runs on the walk's edges: they are the cusp's
        # other edges, and its horoballs come in ascending edge order.
        frames = 0
        for block in knotting_blocks():
            ratios = []
            for frame in block:
                mu, lam, info = geometry.cusp_lattice(frame)
                assert info["rectangles"] == len(block)
                ratios.append(abs(lam / mu))
                nerve, eid = frame.nerve, frame.normalization["infinity_edge"]
                others = np.array([k for k in nerve.cusp_edges[nerve.edges[eid].cusp] if k != eid])
                height, _, horoballs = maximal_cusp(frame)
                assert [p for p, _ in horoballs] == frame.tangency_points(others).tolist()
                diameters = geometry._kappa(frame, others) / height
                assert [d for _, d in horoballs] == diameters.tolist()
            assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)
            frames += len(block)
        assert frames == 214


def ladder_packings(name):
    if name in LADDER:
        return [solve_packing(build_nerve(augment(LADDER[name]())[0]))]
    packings = []
    for _name, al in fal_corpus(4):
        try:
            packings.append(solve_packing(build_nerve(al)))
        except UnsupportedLinkError:
            continue
    return packings


class TestBlockMeasuring:
    @pytest.mark.parametrize("name", [*LADDER, "fal_corpus-4"])
    def test_block_reports_are_the_single_frame_reports(self, name):
        """A block's reports, a crossing circle's measured with no frame of
        its own and a knotting cusp's on its frame, agree bit for bit with
        the public functions on the cusp's frame alone, and each report's
        diameters are a read-only row of the one array of its block."""
        for packing in ladder_packings(name):
            nerve = packing.nerve
            cusps = nerve.cusps()
            reports = geometry._analyze(packing, cusps)
            for cusp in cusps:
                rep = reports[cusp]
                (alone,) = geometry._analyze(packing, [cusp]).values()
                assert rep.to_dict() == alone.to_dict() and rep == alone
                # The public functions, on the frame as a block of one.
                frame = assemble(normalize_at_vertex(packing, nerve.cusp_edges[cusp][0]))
                assert repr(cusp_shape(frame)) == repr(rep.shape)
                height, witness, _ = maximal_cusp(frame)
                assert (height.hex(), witness) == (rep.shape.height.hex(), rep.witness)
                radii = np.concatenate((frame.radius, frame.disk_radius))
                diameters = np.sort(2.0 * radii[np.isfinite(radii)])
                assert rep.diameters.tobytes() == diameters.tobytes()
                assert not rep.diameters.flags.writeable
            size = max(1, geometry._BLOCK_ELEMENTS // len(nerve.edges))
            blocks = [cusps[k:k + size] for k in range(0, len(cusps), size)]
            bases = [{id(reports[c].diameters.base) for c in block} for block in blocks]
            assert all(len(ids) == 1 for ids in bases)
            assert len(set.union(*bases)) == len(blocks)

    def test_a_block_that_passes_some_frames_and_refuses_others(self):
        # A tol that the polish of some frames reaches and of others does not.
        packing = solve_packing(build_nerve(augment(catalog.two_bridge_chain(13))[0]))
        nerve, cusps = packing.nerve, packing.nerve.cusps()
        assert len(cusps) * len(nerve.edges) <= geometry._BLOCK_ELEMENTS  # one block
        for tol in np.geomspace(1e-19, 1e-15, 41).tolist():
            mixed = dataclasses.replace(packing, tol=tol)
            reports = geometry._analyze(mixed, cusps)
            refused = [c for c in cusps if isinstance(reports[c], Exception)]
            if 0 < len(refused) < len(cusps):
                break
        else:
            pytest.fail("no tol splits the block")
        for cusp in cusps:
            (alone,) = geometry._analyze(mixed, [cusp]).values()
            frame = normalize_at_vertex(mixed, nerve.cusp_edges[cusp][0])
            if cusp not in refused:
                assert alone.to_dict() == reports[cusp].to_dict()
                assert assemble(frame) is frame
                continue
            assert type(reports[cusp]) is type(alone) is ConvergenceError
            assert str(reports[cusp]) == str(alone)
            assert reports[cusp].worst_residual == alone.worst_residual
            with pytest.raises(ConvergenceError) as info:
                assemble(frame)
            assert str(info.value) == str(alone)

    def test_one_debug_record_per_block(self, caplog):
        al, _ = augment(catalog.two_bridge_chain(121))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        with caplog.at_level(logging.DEBUG, logger="augcusp"):
            geometry._analyze(packing, nerve.cusps())
        records = [r for r in caplog.records if r.getMessage().startswith("measure: ")]
        assert len(records) == 2 and {r.levelno for r in records} == {logging.DEBUG}
        counts = [
            list(map(int, re.findall(r"(\d+) (?:frames|circle|knotting)", r.getMessage())))
            for r in records
        ]
        assert [sum(col) for col in zip(*counts)] == [123, 121, 2]
        for record in records:
            assert f"against its gate {10 * packing.tol:.2e}" in record.getMessage()

    def test_report_bits_do_not_depend_on_the_block_size(self, monkeypatch):
        packings = [p for name in ("chain-21", "pretzel-3x10", "fal_corpus-4")
                    for p in ladder_packings(name)]
        sizes = []

        def counted(packing, edge_id):
            sizes[-1].append(np.size(edge_id))
            return normalize_at_vertex(packing, edge_id)

        monkeypatch.setattr(geometry, "normalize_at_vertex", counted)

        def dumps(elements):
            monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", elements)
            sizes.append([])
            out = []
            for packing in packings:
                cusps = packing.nerve.cusps()
                reports = geometry._analyze(packing, cusps)
                out += [json.dumps(reports[c].to_dict()) for c in cusps]
            return out

        default = dumps(geometry._BLOCK_ELEMENTS)
        assert dumps(1) == default == dumps(10**9)
        cusps = [len(p.nerve.cusps()) for p in packings]
        assert sizes[1] == [1] * sum(cusps) and sizes[2] == cusps
        assert len(packings) == 2 + 11 and len(default) == sum(cusps) == 92


class TestMeasuringWork:
    @pytest.mark.parametrize("name", ["chain-41", "pretzel-3x20"])
    def test_tangency_points_only_where_measured(self, name, monkeypatch):
        # Tangency points (float64): in a knotting frame its own cusp's other
        # edges, for the horoball search; the maps to the cusp frames take
        # theirs in double-double.  No shaded-circle centre at all.
        points, centres = [], []
        derive_points, derive_disks = CirclePacking.tangency_points, CirclePacking.disks.func

        def counted_points(self, eids=None):
            points.append((self.normalization["frame"], None if eids is None else eids.tolist()))
            return derive_points(self, eids)

        @functools.cached_property
        def counted_disks(self):
            centres.append(np.shape(self.center))
            return derive_disks(self)

        counted_disks.__set_name__(CirclePacking, "disks")
        monkeypatch.setattr(CirclePacking, "tangency_points", counted_points)
        monkeypatch.setattr(CirclePacking, "disks", counted_disks)
        (packing,) = ladder_packings(name)
        nerve = packing.nerve
        reports = geometry._analyze(packing, nerve.cusps())
        assert not any(isinstance(r, Exception) for r in reports.values())
        assert points == [
            ("unit-strip", nerve.cusp_edges[c][1:]) for c in nerve.knotting_cusps
        ]
        assert centres == []


@pytest.mark.parametrize("name", list(LADDER))
def test_report_heights_are_python_floats(name):
    (packing,) = ladder_packings(name)
    for rep in geometry._analyze(packing, packing.nerve.cusps()).values():
        assert type(rep.shape.height) is float
        assert type(rep.shape.longitude_length) is float


class TestReportsPerPacking:
    def count_normalizations(self, monkeypatch):
        calls = []

        def counted(packing, edge_id):
            calls.append(np.size(edge_id))
            return normalize_at_vertex(packing, edge_id)

        monkeypatch.setattr(geometry, "normalize_at_vertex", counted)
        return calls

    def test_a_packing_is_analysed_once(self, monkeypatch):
        al, _ = augment(catalog.two_bridge_chain(13))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        calls = self.count_normalizations(monkeypatch)
        first = [analyze_cusp(al, c, packing=packing, nerve=nerve) for c in nerve.cusps()]
        assert calls == [len(nerve.cusps())]  # one block
        again = [analyze_cusp(al, c, packing=packing, nerve=nerve) for c in nerve.cusps()]
        assert calls == [len(nerve.cusps())]
        assert all(a is b for a, b in zip(first, again))
        fresh = dataclasses.replace(packing)
        other = [analyze_cusp(al, c, packing=fresh, nerve=nerve) for c in nerve.cusps()]
        assert len(calls) == 2
        assert [r.to_dict() for r in other] == [r.to_dict() for r in first]

    def test_a_kept_report_needs_no_sorted_cusp_list(self, monkeypatch):
        al, _ = augment(catalog.two_bridge_chain(13))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        cusps = nerve.cusps()
        first = {c: analyze_cusp(al, c, packing=packing, nerve=nerve) for c in cusps}
        monkeypatch.setattr(type(nerve), "cusps", lambda self: pytest.fail("sorted the cusps"))
        for c in cusps:
            assert analyze_cusp(al, c, packing=packing, nerve=nerve) is first[c]
        assert analyze_cusp(al, packing=packing) is first[nerve.knotting_cusps[0]]
        monkeypatch.undo()
        with pytest.raises(UnsupportedLinkError) as exc:
            analyze_cusp(al, "C99", packing=packing)
        assert str(exc.value) == f"unknown cusp 'C99'; have {sorted(nerve.cusp_edges)}"

    def test_verify_normalizes_only_knotting_frames(self, monkeypatch):
        al, _ = augment(catalog.two_bridge_chain(13))
        nerve = build_nerve(al)
        calls = self.count_normalizations(monkeypatch)
        report = verify_meridian_bound([("chain-13", al)])
        assert calls == [len(nerve.knotting_cusps)] == [2]  # of 15 cusps
        assert [e["cusp"] for e in report["entries"]] == nerve.knotting_cusps

    def test_without_a_packing_one_frame_is_normalized(self, monkeypatch):
        al, _ = augment(catalog.two_bridge_chain(13))
        calls = self.count_normalizations(monkeypatch)
        assert analyze_cusp(al, "C3").cusp == "C3"
        assert calls == [1]

    def test_every_cusp_of_chain_121_in_bounded_memory(self, monkeypatch):
        # 123 cusps of 363 edges, normalized in blocks of 67 and 56: the
        # pass peaks near 1.22 MB, in the first block's horoball-pair search
        # (180 edges), and the kept reports take about 0.46 MB, their
        # diameters being rows of their block's array (as lists of floats
        # they took 1.5 MB).  One block of all 123 frames peaks near 1.85 MB.
        al, _ = augment(catalog.two_bridge_chain(121))
        nerve = build_nerve(al)
        packing = solve_packing(nerve)
        calls = self.count_normalizations(monkeypatch)
        tracemalloc.start()
        try:
            for cusp in nerve.cusps():
                analyze_cusp(al, cusp, packing=packing, nerve=nerve)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(calls) == len(nerve.cusps()) == 123
        assert len(calls) == 2
        assert peak < 1.4e6
        assert held < 1e6

    def test_an_error_stays_with_its_cusp(self):
        # White 2, a circle with edge 0 at infinity, moved off its
        # tangencies: the frames whose point it misses fail to normalize,
        # alone or in a block; the others normalize, and their residual gate
        # refuses them, each with its own residual.
        al, _ = augment(catalog.rational_link([2, 2, 2]))
        nerve = dataclasses.replace(build_nerve(al), infinity_edge=0)
        packing = solve_packing(nerve)
        center = packing.center.copy()
        center[2] -= 0.1j * packing.radius[2]
        moved = dataclasses.replace(packing, center=center)
        outcomes = set()
        for cusp in nerve.cusps():
            try:
                normalize_at_vertex(moved, nerve.cusp_edges[cusp][0])
            except ConvergenceError as exc:
                with pytest.raises(ConvergenceError) as info:
                    analyze_cusp(al, cusp, packing=moved, nerve=nerve)
                assert str(info.value) == str(exc)
                outcomes.add("refused")
            else:
                frame = normalize_at_vertex(moved, nerve.cusp_edges[cusp][0])
                with pytest.raises(ConvergenceError) as info:
                    analyze_cusp(al, cusp, packing=moved, nerve=nerve)
                assert info.value.worst_residual == frame.max_residual() > 10 * frame.tol
                outcomes.add("gated")
        assert outcomes == {"refused", "gated"}


def reference_pair_search(pts, kap, best, shifts):
    """The horoball-pair search over every shift, with no shift left out:
    (height, (i, j) or None, the index of the winning shift or None)."""
    x, y, root = pts.real, pts.imag, np.sqrt(kap)
    pair = won = None
    for n, t in enumerate(shifts):
        gap = np.subtract.outer(x, x + t.real)
        gap = np.hypot(gap, np.subtract.outer(y, y + t.imag), out=gap)
        gap[gap < 1e-14] = np.inf  # the lift itself
        gap /= root[:, None]
        gap /= root
        i, j = divmod(int(np.argmin(gap)), len(pts))
        if math.isinf(gap[i, j]):
            continue
        cand = math.sqrt(kap[i] * kap[j]) / abs(pts[j] + t - pts[i])
        if cand > best + 1e-15:
            best, pair, won = cand, (i, j), n
    return best, pair, won


def random_configuration(rng):
    """Tangency points in a box of a random sheared lattice, with skewed
    kappa in (0, 1], and the starting height as _height takes it."""
    mu = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.5, 0.5))
    lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0))
    wide, tall = rng.uniform(0.1, 1.0) * mu.real, rng.uniform(0.1, 1.0) * lam.imag
    n = rng.randint(2, 12)
    pts = np.array([complex(rng.uniform(0, wide), rng.uniform(0, tall)) for _ in range(n)])
    kap = np.array([(1.0 - rng.random()) ** 3 for _ in range(n)])
    best = max(rng.uniform(0.0, 1.0), math.sqrt(kap.max()))
    shifts = [a * mu + b * lam for a in (-1, 0, 1) for b in (-1, 0, 1)]
    return pts, kap, best, shifts


def equality_configuration(rng, kscale=1.0, scale=1.0, offset=0j, height=1.0):
    """The extent test's equality case, as on the chain ladder: the largest
    kappa at one y extreme of the points, and every nonzero shift exactly
    kappa_max / best beyond the points' extent, so that apart * best equals
    kappa_max and the extent test keeps it.  Half the time a ball of the
    largest kappa stands at each y extreme, one above the other, and the
    pair across the vertical shift is at best / f, f within 1e-6 of 1 on
    either side.  kappa and the starting height are kscale and height times
    their usual range, and the points lie in a box of the given scale about
    offset."""
    n = rng.randint(2, 12)
    box = complex(rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
    pts = [complex(rng.uniform(0, box.real), rng.uniform(0, box.imag)) for _ in range(n)]
    kap = [(1.0 - rng.random()) ** 3 for _ in range(n)]
    top = max(range(n), key=kap.__getitem__)
    pts[top] = complex(pts[top].real, rng.choice((0.0, box.imag)))
    if rng.random() < 0.5:  # its twin at the other extreme
        pts.append(complex(pts[top].real, box.imag - pts[top].imag))
        kap.append(kap[top])
    pts, kap = offset + scale * np.array(pts), kscale * np.array(kap)
    best = max(rng.uniform(0.0, 1.0) * height, math.sqrt(kap.max()))
    wx, wy = np.ptp(pts.real), np.ptp(pts.imag)
    f = 1.0 + rng.choice((-1, 1)) * 10 ** rng.uniform(-15, -6)
    reach = kap.max() / best * f
    mu, lam = complex(wx + reach, rng.uniform(-1, 1) * scale), complex(0.0, wy + reach)
    shifts = [a * mu + b * lam for a in (-1, 0, 1) for b in (-1, 0, 1)]
    return pts, kap, best, shifts


def float_stress_configuration(rng):
    """The equality case with kappa near 1e-12, in turn: points of extent
    about 1 up to 1e3 from the origin, starting at height about 1, so the
    gaps across a shift (near 1e-12) are computed from coordinates 1e15
    times as large; and points of extent 1e-9 to 1e-7, starting at height
    about 1e-6, so the shifts are 10 to 1000 times longer than the points'
    extent."""
    if rng.random() < 0.5:
        offset = complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        return equality_configuration(rng, 1e-12, 1.0, offset, 1.0)
    return equality_configuration(rng, 1e-12, 10 ** rng.uniform(-9, -7), 0.5 + 0.5j, 1e-6)


def bound_drops(pts, kap, best, shifts):
    """How many nonzero shifts the O(1) extent test keeps and the per-point
    bound drops, each at the height the full search reaches before it."""
    wx, wy = np.ptp(pts.real), np.ptp(pts.imag)
    top = kap.max() * (1 + 1e-9)
    drops = 0
    for k, t in enumerate(shifts):
        before = reference_pair_search(pts, kap, best, shifts[:k])[0]
        if t and max(abs(t.real) - wx, abs(t.imag) - wy) * before <= top:
            drops += geometry._pair_search(pts, kap, before, [t])[2] == 0
    return drops


class TestPairSearch:
    def test_pruned_search_is_the_full_search(self):
        rng = random.Random(1606)
        across = pruned = 0
        for _ in range(600):
            pts, kap, best, shifts = random_configuration(rng)
            height, pair, searched = geometry._pair_search(pts, kap, best, shifts)
            want = reference_pair_search(pts, kap, best, shifts)
            assert (height, pair) == want[:2]
            across += want[2] not in (None, 4)  # won across a nonzero shift
            pruned += searched < len(shifts)
        # Both ways to differ from the reference are exercised: a pair that
        # only a nonzero shift finds, and shifts left out.
        assert across >= 10 and pruned >= 100

    @pytest.mark.parametrize(
        "make, least", [(equality_configuration, 1000), (float_stress_configuration, 500)]
    )
    def test_the_per_point_bound_drops_what_the_extent_test_keeps(self, make, least):
        rng = random.Random(3303)
        dropped = across = 0
        for _ in range(600):
            pts, kap, best, shifts = make(rng)
            height, pair, searched = geometry._pair_search(pts, kap, best, shifts)
            want = reference_pair_search(pts, kap, best, shifts)
            assert (height, pair) == want[:2]
            across += want[2] not in (None, 4)
            dropped += bound_drops(pts, kap, best, shifts)
        # Of the 1829 and 1456 nonzero shifts that the extent test keeps in
        # the 600 configurations, the bound drops 1554 and 911, and pairs
        # just above best still win across a shift in 27 and 98 of them.
        assert dropped >= least and across >= 20

    @pytest.mark.parametrize(
        "make", [random_configuration, equality_configuration, float_stress_configuration]
    )
    def test_a_shift_with_a_pair_above_best_is_searched(self, make):
        # Each nonzero shift alone, with best just below its highest pair as
        # the full search computes it: neither test may drop it.
        rng = random.Random(3304)
        probed = 0
        for _ in range(300):
            pts, kap, _best, shifts = make(rng)
            for t in shifts:
                high = reference_pair_search(pts, kap, 0.0, [t])[0]
                if t and high > 0:
                    assert geometry._pair_search(pts, kap, high * (1 - 1e-6), [t])[2] == 1
                    probed += 1
        assert probed >= 1000

    def test_every_knotting_frame_is_measured_as_by_the_full_search(self, monkeypatch):
        frames = [frame for block in knotting_blocks() for frame in block]
        for k in (61, 121):  # the report frames of the chain's knotting cusps
            nerve = build_nerve(augment(catalog.two_bridge_chain(k))[0])
            packing = solve_packing(nerve)
            frames += [normalize_at_vertex(packing, nerve.cusp_edges[c][0])
                       for c in nerve.knotting_cusps]
        searched = {}

        def pruned(pts, kap, best, shifts):
            out = search(pts, kap, best, shifts)
            searched[len(pts)] = out[2]
            return out

        search = geometry._pair_search
        monkeypatch.setattr(geometry, "_pair_search", pruned)
        got = [maximal_cusp(frame) for frame in frames]
        monkeypatch.setattr(
            geometry, "_pair_search",
            lambda pts, kap, best, shifts: (*reference_pair_search(pts, kap, best, shifts)[:2], 9),
        )
        assert got == [maximal_cusp(frame) for frame in frames]
        assert len(frames) == 214 + 4
        assert searched[180] == 1  # chain-121's long cusp: 180 other lifts


HEIGHT_RECORD = re.compile(
    r"height: edge (\d+) at infinity, (\d) of 9 shifts searched \((\d+) pairs\), "
    r"height (\S+), witness (.+)"
)


def test_one_debug_record_per_knotting_frame(caplog):
    al, _ = augment(catalog.two_bridge_chain(13))
    nerve = build_nerve(al)
    packing = solve_packing(nerve)
    with caplog.at_level(logging.DEBUG, logger="augcusp"):
        reports = geometry._analyze(packing, nerve.cusps())
    records = [r for r in caplog.records if r.getMessage().startswith("height: ")]
    assert len(records) == len(nerve.knotting_cusps) == 2
    searched = []
    for cusp, record in zip(nerve.knotting_cusps, records):
        assert record.levelno == logging.DEBUG
        eid, shifts, pairs, height, witness = HEIGHT_RECORD.fullmatch(record.getMessage()).groups()
        lifts = len(nerve.cusp_edges[cusp]) - 1
        assert int(eid) == nerve.cusp_edges[cusp][0]
        assert int(pairs) == int(shifts) * lifts**2
        assert float(height) == reports[cusp].shape.height
        assert witness == reports[cusp].witness
        searched.append(int(shifts))
    assert sorted(searched) == [1, 1]
