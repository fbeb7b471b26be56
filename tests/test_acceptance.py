"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line so running `pytest -s tests/test_acceptance.py`
gives a per-criterion summary.
"""

import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

import augcusp
from augcusp import catalog
from augcusp.augment import augment, untwist_retwist_roundtrip
from augcusp.diagram import pd_isomorphic
from augcusp.families import (
    fal_corpus,
    gen_longitude_family,
    longitude_family_invariants,
    three_punctured_certificate,
)
from augcusp.geometry import analyze_cusp, verify_meridian_bound
from augcusp.packing import build_nerve, solve_flower_radii, solve_packing

CLI = [sys.executable, "-m", "augcusp.cli"]
# The CLI runs from the source tree the tests import.
SRC = os.path.dirname(os.path.dirname(augcusp.__file__))


def run_cli(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_criterion_1_square_cusp_reproduction():
    t0 = time.time()
    r = run_cli("cusp", "--family", "twobridge", "1", "1")
    elapsed = time.time() - t0
    assert r.returncode == 0
    rep = json.loads(r.stdout)["cusp_report"]
    assert abs(rep["height"] - 0.5) <= 1e-9
    assert all(abs(d - 1.0) <= 1e-9 for d in rep["circle_diameters"])
    assert abs(rep["meridian_length"] - 4.0) <= 1e-6
    assert abs(rep["longitude_length"] - 4.0) <= 1e-6
    mod = complex(rep["modulus"][0], rep["modulus"][1])
    assert abs(mod - 1j) <= 1e-6
    assert elapsed < 1.0
    print(
        f"\ncriterion 1 PASS: square cusp h={rep['height']:.12f} "
        f"meridian={rep['meridian_length']:.12f} longitude="
        f"{rep['longitude_length']:.12f} modulus~i ({elapsed:.2f}s)"
    )


def test_criterion_2_exact_two_meridian():
    t0 = time.time()
    al, _ = augment(catalog.figure_eight())
    rep = analyze_cusp(al, "0")
    elapsed = time.time() - t0
    assert abs(rep.shape.meridian_length - 2.0) <= 1e-6
    assert elapsed < 1.0
    print(
        f"\ncriterion 2 PASS: minimal augmented link knotting meridian = "
        f"{rep.shape.meridian_length:.12f} ({elapsed:.2f}s)"
    )


def test_criterion_3_bound_suite():
    t0 = time.time()
    corpus = fal_corpus(4)
    assert len(corpus) <= 50
    report = verify_meridian_bound(corpus)
    elapsed = time.time() - t0
    assert report["all_pass"]
    passes = [e for e in report["entries"] if e["status"] == "PASS"]
    assert passes
    for e in passes:
        assert 2.0 - 1e-9 <= e["meridian_length"] < 4.0
        assert 1.0 - 1e-9 <= e["reflection_width"] < 2.0
    assert elapsed < 30.0
    print(
        f"\ncriterion 3 PASS: {len(passes)} cusps in [2,4)x[1,2), "
        f"{sum(1 for e in report['entries'] if e['status'] == 'SKIP')} skipped "
        f"({elapsed:.2f}s)"
    )


def test_criterion_4_packing_solver_oracles():
    t0 = time.time()
    # Tetrahedral nerve: Descartes circle relation to 1e-10.
    al, _ = augment(catalog.figure_eight())
    packing = solve_packing(build_nerve(al), tol=1e-12)
    ks = sorted((1.0 / packing.radius).tolist())
    k1, k2, k3, k4 = ks
    target = k1 + k2 + k3 + 2 * math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
    assert abs(k4 - target) <= 1e-10
    # One line and two unit circles: inner radius from the same relation.
    radii = solve_flower_radii({3: [0, 1, 2]}, {0: math.inf, 1: 1.0, 2: 1.0}, tol=1e-14)
    k_inner = 1.0 / radii[3]
    assert abs(k_inner - (2.0 + 2.0 * math.sqrt(1.0))) <= 1e-10
    # Hexagonal flower: equal radii to 1e-12.
    hexr = solve_flower_radii({0: [1, 2, 3, 4, 5, 6]}, {i: 1.0 for i in range(1, 7)}, tol=1e-14)
    assert abs(hexr[0] - 1.0) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(
        f"\ncriterion 4 PASS: Descartes residual {abs(k4 - target):.2e}, "
        f"hexagonal residual {abs(hexr[0] - 1.0):.2e} ({elapsed:.2f}s)"
    )


def test_criterion_5_combinatorial_roundtrip():
    t0 = time.time()
    diagrams = [catalog.trefoil(), catalog.figure_eight()]
    rng = random.Random(20260808)
    while len(diagrams) < 52:
        if rng.random() < 0.5:
            k = rng.randint(1, 5)
            diagrams.append(catalog.rational_link([rng.randint(2, 4) for _ in range(k)]))
        else:
            c = rng.randint(2, 4)
            diagrams.append(catalog.pretzel_link([rng.randint(2, 5) for _ in range(c)]))
    for d in diagrams:
        assert pd_isomorphic(untwist_retwist_roundtrip(d), d)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(
        f"\ncriterion 5 PASS: {len(diagrams)} diagrams round-trip up to "
        f"isomorphism ({elapsed:.2f}s)"
    )


def test_criterion_6_longitude_family():
    t0 = time.time()
    for n in range(0, 11):
        al = gen_longitude_family(n)
        cert = three_punctured_certificate(al, "K")
        assert cert is not None and cert.bound == 4.0
        inv = longitude_family_invariants(al)
        assert inv["crossing_circles"] == 2 + 2 * n
        assert inv["new_disks_meet_strand_four_times"]
        assert inv["new_punctures_same_component"]
    r = run_cli("cusp", "--family", "longitude", "7")
    assert r.returncode == 0
    assert "longitude <= 4 (3-punctured sphere)" in r.stderr
    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\ncriterion 6 PASS: certificates for n = 0..10 ({elapsed:.2f}s)")


def test_criterion_7_documented_substitution():
    # Meridians of the Dehn-filled knots approaching 4 need a general
    # hyperbolic structure solver, which is out of scope; the suite instead
    # certifies the parent value 4 (criterion 1) together with the strict
    # bound corpus (criterion 3) and the combinatorial roundtrip (criterion 5).
    r = run_cli("cusp", "--family", "twobridge", "1", "1")
    rep = json.loads(r.stdout)["cusp_report"]
    assert abs(rep["meridian_length"] - 4.0) <= 1e-6
    print(
        "\ncriterion 7 NOTED: filled-knot meridians are certified via the "
        "parent value 4 plus criteria 3 and 5 (stated substitution)"
    )
