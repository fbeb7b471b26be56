import json
import os
import subprocess
import sys

import pytest

import augcusp
from augcusp import catalog

CLI = [sys.executable, "-m", "augcusp.cli"]
# The CLI runs from the source tree the tests import.
SRC = os.path.dirname(os.path.dirname(augcusp.__file__))


def run(*args, env=None):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )


@pytest.fixture(scope="module")
def diagrams(tmp_path_factory):
    root = tmp_path_factory.mktemp("diagrams")
    (root / "trefoil.json").write_text(catalog.trefoil().to_json())
    (root / "fig8.json").write_text(catalog.figure_eight().to_json())
    (root / "bad.json").write_text("{nope")
    return root


class TestTwists:
    def test_trefoil_report(self, diagrams):
        r = run("twists", str(diagrams / "trefoil.json"))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert len(doc["regions"]) == 1
        assert doc["regions"][0]["count"] == 3
        assert "1 region(s): 3 crossings" in r.stderr

    def test_figure_eight_two_regions(self, diagrams):
        r = run("twists", str(diagrams / "fig8.json"))
        doc = json.loads(r.stdout)
        assert len(doc["regions"]) == 2

    def test_malformed_json_exit_2(self, diagrams):
        r = run("twists", str(diagrams / "bad.json"))
        assert r.returncode == 2


class TestAugment:
    def test_trefoil_ledger(self, diagrams):
        r = run("augment", str(diagrams / "trefoil.json"))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["ledger"] == {"C1": "1/1"}

    def test_roundtrip_flag(self, diagrams):
        r = run("augment", str(diagrams / "trefoil.json"), "--roundtrip")
        assert r.returncode == 0
        assert "roundtrip ok" in r.stderr

    def test_overlapping_annotations_exit_3(self, diagrams, tmp_path):
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps([{"crossings": [0, 1, 2]}, {"crossings": [2]}]))
        r = run("augment", str(diagrams / "trefoil.json"), "--annotations", str(ann))
        assert r.returncode == 3


class TestCusp:
    def test_family_twobridge_square(self):
        r = run("cusp", "--family", "twobridge", "1", "1")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        rep = doc["cusp_report"]
        assert abs(rep["meridian_length"] - 4.0) <= 1e-6
        assert abs(rep["longitude_length"] - 4.0) <= 1e-6
        assert abs(rep["height"] - 0.5) <= 1e-9
        assert "meridian 4.000000" in r.stderr

    def test_family_longitude_certificate(self):
        r = run("cusp", "--family", "longitude", "5")
        assert r.returncode == 0
        assert "longitude <= 4 (3-punctured sphere)" in r.stderr

    def test_minimal_fal_meridian_two(self, diagrams):
        r = run("cusp", str(diagrams / "fig8.json"))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert abs(doc["cusps"]["0"]["meridian_length"] - 2.0) <= 1e-6
        assert "meridian 2.000000" in r.stderr

    def test_reports_byte_identical(self):
        a = run("cusp", "--family", "twobridge", "2", "1", "2")
        b = run("cusp", "--family", "twobridge", "2", "1", "2", env={"AUGCUSP_LOG": "DEBUG"})
        assert a.stdout == b.stdout
        assert "solve_packing:" in b.stderr and "solve_packing:" not in a.stderr
        assert "normalize_at_vertex:" in b.stderr

    def test_every_chain_cusp_reported(self, tmp_path):
        path = tmp_path / "chain-13.json"
        path.write_text(catalog.two_bridge_chain(13).to_json())
        r = run("cusp", str(path))
        assert r.returncode == 0, r.stderr
        reports = json.loads(r.stdout)["cusps"]
        assert len(reports) == 15
        for rep in reports.values():
            if rep["kind"] == "knotting":
                assert abs(rep["meridian_length"] - 2.0) <= 1e-8

    def test_render(self, tmp_path):
        svg = tmp_path / "packing.svg"
        r = run("cusp", "--family", "twobridge", "1", "1", "--render", str(svg))
        assert r.returncode == 0
        assert svg.read_text().startswith("<?xml")

    def test_unsupported_input_exit_3(self, diagrams):
        r = run("cusp", str(diagrams / "trefoil.json"))
        assert r.returncode == 3


class TestVerify:
    def test_generated_corpus_passes(self):
        r = run("verify", "--generate", "3")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["all_pass"]

    def test_empty_directory(self, tmp_path):
        r = run("verify", str(tmp_path))
        assert r.returncode == 0
        assert json.loads(r.stdout) == {"entries": [], "all_pass": True}

    def test_directory_with_unsupported_entry(self, tmp_path):
        (tmp_path / "trefoil.json").write_text(catalog.trefoil().to_json())
        (tmp_path / "fig8.json").write_text(catalog.figure_eight().to_json())
        r = run("verify", str(tmp_path))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        statuses = {e["name"]: e["status"] for e in doc["entries"]}
        assert statuses["trefoil"] == "SKIP"
        assert statuses["fig8"] == "PASS"

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run("--out", str(out), "verify", "--generate", "2")
        assert r.returncode == 0
        assert json.loads(out.read_text())["all_pass"]


class TestExitCodes:
    def test_solver_nonconvergence_exit_4(self, diagrams):
        r = run("--max-iter", "0", "cusp", str(diagrams / "fig8.json"))
        assert r.returncode == 4
        assert "did not converge" in r.stderr or "residual" in r.stderr

    def test_render_writes_horoball_svg(self, diagrams, tmp_path):
        svg = tmp_path / "fal.svg"
        r = run("cusp", str(diagrams / "fig8.json"), "--render", str(svg))
        assert r.returncode == 0
        assert svg.exists()
        assert (tmp_path / "fal.horoballs.svg").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf", "abc"])
    def test_bad_tol_exit_2(self, tol):
        r = run("--tol", tol, "cusp", "--family", "twobridge", "1", "1")
        assert r.returncode == 2
        assert "argument --tol" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "family", [["twobridge", "0"], ["longitude", "-1"], ["twobridge", "x"]]
    )
    def test_bad_family_arguments_exit_3(self, family):
        r = run("cusp", "--family", *family)
        assert r.returncode == 3
        assert r.stderr.startswith("validation error: ")
        assert "Traceback" not in r.stderr
