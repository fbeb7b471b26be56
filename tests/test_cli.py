import contextlib
import dataclasses
import errno
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import augcusp
from augcusp import catalog, cli, geometry
from augcusp.diagram import full_ribbon_braid, parse_diagram
from augcusp.errors import AugcuspError
from augcusp.packing import normalize_at_vertex

CLI = [sys.executable, "-m", "augcusp.cli"]
# JSON nested deeper than the interpreter's recursion limit lets json.loads read.
DEEP = "[" * 5000 + "]" * 5000
TREFOIL_PD = [[2, 1, 3, 4], [4, 3, 5, 6], [6, 5, 1, 2]]
# The package exports the function `augment` under the submodule's name.
augment_module = importlib.import_module("augcusp.augment")
# The CLI runs from the source tree the tests import.
SRC = os.path.dirname(os.path.dirname(augcusp.__file__))


def run(*args, env=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=None):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        CLI + list(args), stdout=stdout, stderr=stderr, text=True, preexec_fn=preexec_fn,
        env={**os.environ, "PYTHONPATH": path, **(env or {})},
    )


def close_stderr():
    os.close(2)


def read_only_stderr():
    """fd 2 closed and then reused by a file opened for reading, as when
    something opens a file in a process started with `2>&-`."""
    os.close(2)
    os.open(os.devnull, os.O_RDONLY)


@pytest.fixture(scope="module")
def diagrams(tmp_path_factory):
    root = tmp_path_factory.mktemp("diagrams")
    (root / "trefoil.json").write_text(catalog.trefoil().to_json())
    (root / "fig8.json").write_text(catalog.figure_eight().to_json())
    (root / "pretzel-5432.json").write_text(catalog.pretzel_link([5, 4, 3, 2]).to_json())
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

    def test_label_shared_by_two_components_exit_3(self, tmp_path):
        doc = json.loads(catalog.two_bridge_chain(5).to_json())
        doc["components"] = {e: "0" for e in doc["components"]}
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(doc))
        r = run("twists", str(path))
        assert r.returncode == 3
        assert "label '0' is carried by two separate components" in r.stderr

    @pytest.mark.parametrize("field, value", [("components", {"a": "0"}), ("signs", 5), ("loops", 5)])
    def test_malformed_envelope_field_exit_2(self, tmp_path, capsys, field, value):
        path = tmp_path / "envelope.json"
        path.write_text(json.dumps({"pd": TREFOIL_PD, field: value}))
        assert cli.main(["twists", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and f"'{field}'" in err

    @pytest.mark.parametrize("field", ["components", "loops"])
    @pytest.mark.parametrize("label", [["x"], None, 1.5, True, {"a": 1}], ids=repr)
    def test_label_that_is_not_a_string_or_integer_exit_2(self, tmp_path, capsys, field, label):
        doc = json.loads(catalog.trefoil().to_json())
        if field == "components":
            doc["components"]["1"] = label
        else:
            doc["loops"] = ["L", label]
        path = tmp_path / "label.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["twists", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"parse error: '{field}' labels must be strings or integers, "
            f"got {json.dumps(label)}\n"
        )

    def test_integer_labels_read_as_their_decimal_strings(self, tmp_path, capsys):
        doc = json.loads(catalog.trefoil().to_json())
        doc["components"] = {e: 7 for e in doc["components"]}
        doc["loops"] = [8, "9"]
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        d = parse_diagram(path.read_text())
        assert set(d.components.values()) == {"7"} and d.loops == ("8", "9")
        assert cli.main(["twists", str(path)]) == 0

    @pytest.mark.parametrize("signs", [[True, 1, -1], [1, 1.0, -1], [1, -1, "1"]], ids=repr)
    def test_signs_that_are_not_integers_exit_2(self, tmp_path, capsys, signs):
        path = tmp_path / "signs.json"
        path.write_text(json.dumps({"pd": TREFOIL_PD, "signs": signs}))
        assert cli.main(["twists", str(path)]) == 2
        assert capsys.readouterr().err == (
            "parse error: 'signs' must list the integer 1 or -1 per crossing\n"
        )

    @pytest.mark.parametrize("key", [" 1", "+2", "01", "1_0", "-0", "١"], ids=repr)
    def test_components_key_that_is_not_a_decimal_integer_exit_2(self, tmp_path, capsys, key):
        # Every edge labelled, one key written in another form of its number.
        components = {str(e): "0" for e in range(1, 7) if e != int(key)} | {key: "0"}
        path = tmp_path / "components.json"
        path.write_text(json.dumps({"pd": TREFOIL_PD, "components": components}))
        assert cli.main(["twists", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: 'components' keys must be edge ids, got {json.dumps(key)}\n"
        )

    @pytest.mark.parametrize(
        "at, edge, bad", [((0, 1), 7, [1, 7]), ((2, 3), 1, [1, 2])], ids=["once", "thrice"]
    )
    def test_unpaired_edge_without_components_exit_3(self, tmp_path, capsys, at, edge, bad):
        pd = [list(c) for c in TREFOIL_PD]
        pd[at[0]][at[1]] = edge
        path = tmp_path / "unpaired.json"
        path.write_text(json.dumps({"pd": pd}))
        assert cli.main(["twists", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"validation error: edge ids must appear exactly twice, offending: {bad}\n"
        )

    @pytest.mark.parametrize("edge", [1.5, True, "1", None, 1e400], ids=repr)
    def test_edge_id_that_is_not_an_integer_exit_2(self, tmp_path, capsys, edge):
        pd = [list(c) for c in TREFOIL_PD]
        pd[1][2] = edge
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"pd": pd}))
        assert cli.main(["twists", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: edge ids must be integers, got {json.dumps(edge)}\n"

    @pytest.mark.parametrize("command", ["twists", "augment", "cusp"])
    def test_pd_nested_too_deep_exit_2(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text(f'{{"pd": {DEEP}}}')
        r = run(command, str(path))
        assert r.returncode == 2
        assert r.stderr.startswith("parse error: not valid JSON: ")
        assert "Traceback" not in r.stderr and r.stdout == ""

    def test_undecodable_input_exit_2(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\x86\xff\x00")
        r = run("twists", str(path))
        assert r.returncode == 2
        assert r.stderr.startswith(f"parse error: cannot read {path}: ")


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

    def test_roundtrip_refills_the_augmented_link(self, diagrams, monkeypatch, capsys):
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)
            return wrapper

        for module in (cli, augment_module):
            monkeypatch.setattr(module, "augment", counted("augment", augment_module.augment))
        monkeypatch.setattr(
            augment_module, "detect_twist_regions",
            counted("detect", augment_module.detect_twist_regions),
        )
        assert cli.main(["augment", str(diagrams / "trefoil.json"), "--roundtrip"]) == 0
        assert "roundtrip ok" in capsys.readouterr().err
        assert calls == ["augment", "detect"]

    def test_key_records_leave_stdout_unchanged(self, diagrams):
        a = run("augment", str(diagrams / "trefoil.json"), "--roundtrip")
        b = run("augment", str(diagrams / "trefoil.json"), "--roundtrip",
                env={"AUGCUSP_LOG": "DEBUG"})
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        # One record for the refill checked against the input; no key is read.
        assert b.stderr.count("pd_isomorphic: ") == 1
        assert "canonical_pd" not in b.stderr
        assert "pd_isomorphic" not in a.stderr
        # One record for the input's face colorings, which the link's JSON
        # reads through the end sides of its circle.
        assert b.stderr.count("face colorings: ") == 1
        assert "face colorings: 3 crossings, 5 faces, holding for 0\n" in b.stderr
        assert "face colorings" not in a.stderr

    def test_roundtrip_keeps_loops(self, tmp_path):
        doc = json.loads(catalog.trefoil().to_json())
        doc["loops"] = ["L"]
        path = tmp_path / "trefoil-and-loop.json"
        path.write_text(json.dumps(doc))
        r = run("augment", str(path), "--roundtrip")
        assert r.returncode == 0, r.stderr
        assert "roundtrip ok" in r.stderr
        assert "L" in json.loads(r.stdout)["link"]["base"]["loops"]

    @pytest.mark.parametrize("flags", [[], ["--roundtrip"]], ids=["plain", "roundtrip"])
    def test_loops_without_crossings(self, tmp_path, capsys, flags):
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({"pd": [], "loops": ["a"]}))
        assert cli.main(["augment", str(path), *flags]) == 0
        out, err = capsys.readouterr()
        link = json.loads(out)["link"]
        assert link["circles"] == {} and link["passages"] == {"a": []}
        assert link["base"] == {"components": {}, "loops": ["a"], "pd": []}
        assert ("roundtrip ok" in err) == bool(flags)
        assert err.endswith("0 crossing circle(s); ledger: (no nontrivial fillings)\n")

    def test_overlapping_annotations_exit_3(self, diagrams, tmp_path):
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps([{"crossings": [0, 1, 2]}, {"crossings": [2]}]))
        r = run("augment", str(diagrams / "trefoil.json"), "--annotations", str(ann))
        assert r.returncode == 3

    def test_annotated_sub_chain_augments_and_roundtrips(self, diagrams, tmp_path):
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps([{"crossings": [0, 1]}, {"crossings": [2]}]))
        r = run("augment", str(diagrams / "trefoil.json"), "--annotations", str(ann),
                "--roundtrip")
        assert r.returncode == 0, r.stderr
        assert "roundtrip ok" in r.stderr
        assert len(json.loads(r.stdout)["link"]["circles"]) == 2

    def test_three_strand_annotation_exit_3(self, tmp_path):
        # A full ribbon twist of three strands (6 crossings), closed up by a
        # second one: it validates, but augment handles two strands only.
        word = full_ribbon_braid(3, 1)
        (tmp_path / "ribbon.json").write_text(
            catalog.braid_closure(3, word + word).to_json()
        )
        ann = tmp_path / "ann.json"
        ann.write_text(json.dumps([{"crossings": list(range(len(word))), "strands": 3}]))
        r = run("augment", str(tmp_path / "ribbon.json"), "--annotations", str(ann))
        assert r.returncode == 3
        assert r.stderr.startswith("validation error: ") and "3 strands" in r.stderr
        assert "Traceback" not in r.stderr

    def test_annotations_nested_too_deep_exit_2(self, diagrams, tmp_path):
        ann = tmp_path / "ann.json"
        ann.write_text(DEEP)
        r = run("augment", str(diagrams / "trefoil.json"), "--annotations", str(ann))
        assert r.returncode == 2
        assert r.stderr.startswith(f"parse error: cannot read {ann}: ")
        assert "Traceback" not in r.stderr and r.stdout == ""

    @pytest.mark.parametrize(
        "text, code",
        [
            (None, 2),
            ("{nope", 2),
            ('{"crossings": [0]}', 3),
            ("[[0, 1]]", 3),
            ('[{"crossings": "ab"}]', 3),
            ('[{"crossings": [0.5]}]', 3),
            ('[{"crossings": [0], "strands": "2"}]', 3),
            ("[{}]", 3),
        ],
    )
    def test_malformed_annotations_exit_2_or_3(self, diagrams, tmp_path, text, code):
        ann = tmp_path / "ann.json"
        if text is not None:
            ann.write_text(text)
        r = run("augment", str(diagrams / "trefoil.json"), "--annotations", str(ann))
        assert r.returncode == code, r.stderr
        assert str(ann) in r.stderr
        assert "Traceback" not in r.stderr and r.stdout == ""


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
        assert "measure: block of " in b.stderr and "normalize_at_vertex:" not in b.stderr

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

    def test_block_records_leave_stdout_unchanged(self, tmp_path):
        path = tmp_path / "chain-13.json"
        path.write_text(catalog.two_bridge_chain(13).to_json())
        a = run("cusp", str(path))
        b = run("cusp", str(path), env={"AUGCUSP_LOG": "DEBUG"})
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert "measure: block of 15 frames, 13 circle and 2 knotting" in b.stderr
        assert b.stderr.count("height: edge ") == 2  # one per knotting frame
        assert "measure:" not in a.stderr and "height:" not in a.stderr

    def test_measuring_error_exit_3(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "chain-5.json"
        path.write_text(catalog.two_bridge_chain(5).to_json())
        # The frames name the next edge as the one at infinity: that edge's
        # lifts are shaded circles, not vertical lines.
        def off_infinity(packing, eids):
            frames = normalize_at_vertex(packing, eids)
            moved = (eids + 1) % len(packing.nerve.edge_cusp)
            return dataclasses.replace(
                frames, normalization={**frames.normalization, "infinity_edge": moved}
            )

        monkeypatch.setattr(geometry, "normalize_at_vertex", off_infinity)
        assert cli.main(["cusp", str(path)]) == 3
        assert "validation error: crossing-disk lift at the cusp is not vertical" in (
            capsys.readouterr().err
        )

    def test_render(self, tmp_path):
        svg = tmp_path / "packing.svg"
        r = run("cusp", "--family", "twobridge", "1", "1", "--render", str(svg))
        assert r.returncode == 0
        assert svg.read_text().startswith("<?xml")

    def test_unsupported_input_exit_3(self, diagrams):
        r = run("cusp", str(diagrams / "trefoil.json"))
        assert r.returncode == 3

    def test_file_and_family_together_exit_2(self, diagrams, capsys):
        path = str(diagrams / "fig8.json")
        assert cli.main(["cusp", path, "--family", "twobridge", "1", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"parse error: give a diagram file or --family, not both: {path} and "
            "--family twobridge 1 1\n"
        )

    def test_longitude_family_with_render_exit_2(self, tmp_path, capsys):
        svg = tmp_path / "longitude.svg"
        assert cli.main(["cusp", "--family", "longitude", "2", "--render", str(svg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not svg.exists()
        assert err == (
            "parse error: --render draws a packing, which --family longitude does not "
            f"build: --family longitude 2 and --render {svg}\n"
        )

    def test_closed_stdout_exit_2(self):
        # The pipe's read end is closed before the child writes: its print
        # fails, and nothing is left for the flush at exit.
        read, write = os.pipe()
        os.close(read)
        try:
            r = run("cusp", "--family", "twobridge", "1", "1", stdout=write)
        finally:
            os.close(write)
        assert r.returncode == 2
        assert r.stderr == f"output error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_exit_2(self):
        with open("/dev/full", "w") as full:
            r = run("verify", "--generate", "2", stdout=full)
        assert r.returncode == 2
        assert r.stderr == f"output error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"

    def test_loops_without_crossings_exit_3(self, tmp_path, capsys):
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({"pd": [], "loops": ["a"]}))
        assert cli.main(["cusp", str(path)]) == 3
        assert capsys.readouterr().err == "validation error: no crossing circles\n"


@pytest.mark.parametrize("closing", [close_stderr, read_only_stderr])
class TestClosedStderr:
    """A closed stderr drops the summary lines and changes no exit code."""

    def test_report_written_exit_0(self, closing):
        want = run("verify", "--generate", "2")
        got = run("verify", "--generate", "2", stderr=None, preexec_fn=closing)
        assert want.returncode == got.returncode == 0
        assert got.stdout == want.stdout

    def test_parse_error_exit_2(self, closing, tmp_path):
        (tmp_path / "EMPTY.json").write_text("")
        r = run("twists", str(tmp_path / "EMPTY.json"), stderr=None, preexec_fn=closing)
        assert r.returncode == 2 and r.stdout == ""


class TestVerify:
    def test_generated_corpus_passes(self):
        r = run("verify", "--generate", "3")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["all_pass"]

    def test_empty_directory(self, tmp_path, capsys):
        # Nothing to check is a usage error, not a pass.
        (tmp_path / "notes.txt").write_text("not a diagram")
        assert cli.main(["verify", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"parse error: {tmp_path} holds no *.json diagram\n")

    def test_nothing_measured_exit_3(self):
        # --generate 1 holds one entry, with a single crossing circle.
        r = run("verify", "--generate", "1")
        assert r.returncode == 3
        doc = json.loads(r.stdout)
        assert [e["status"] for e in doc["entries"]] == ["SKIP"]
        assert doc["all_pass"] is False
        assert r.stderr.endswith("0 pass, 0 fail, 1 skipped\n")

    def test_no_corpus(self, capsys):
        assert cli.main(["verify"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "parse error: need a corpus directory or --generate\n")

    def test_directory_and_generate_together_exit_2(self, tmp_path, capsys):
        # The directory need not exist: the two sources are refused first.
        missing = tmp_path / "missing"
        assert cli.main(["verify", str(missing), "--generate", "2"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == (
            "",
            f"parse error: give a corpus directory or --generate, not both: {missing} and "
            "--generate 2\n",
        )

    def test_directory_with_unsupported_entry(self, tmp_path):
        (tmp_path / "trefoil.json").write_text(catalog.trefoil().to_json())
        (tmp_path / "fig8.json").write_text(catalog.figure_eight().to_json())
        r = run("verify", str(tmp_path))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        statuses = {e["name"]: e["status"] for e in doc["entries"]}
        assert statuses["trefoil"] == "SKIP"
        assert statuses["fig8"] == "PASS"

    @pytest.mark.parametrize("count", ["-1", "0", "x"])
    def test_generate_below_one_exit_2(self, count):
        r = run("verify", "--generate", count)
        assert r.returncode == 2
        assert "argument --generate" in r.stderr
        assert r.stdout == ""

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run("--out", str(out), "verify", "--generate", "2")
        assert r.returncode == 0
        assert json.loads(out.read_text())["all_pass"]


class TestExitCodes:
    def test_solver_nonconvergence_exit_4(self, diagrams):
        # No float residual meets a tolerance of 1e-300: the radii still
        # solve (their tolerance is floored at 1e-15), and solve_packing's
        # tangency residual gate refuses the packing.
        r = run("--tol", "1e-300", "cusp", str(diagrams / "pretzel-5432.json"))
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
        "family",
        [["twobridge", "0"], ["twobridge", "2", "1"], ["longitude", "-1"], ["twobridge", "x"]],
    )
    def test_bad_family_arguments_exit_3(self, family):
        r = run("cusp", "--family", *family)
        assert r.returncode == 3
        assert r.stderr.startswith("validation error: ")
        assert "Traceback" not in r.stderr

    def test_unwritable_out_exit_2(self, diagrams, tmp_path):
        out = tmp_path / "missing" / "report.json"
        r = run("--out", str(out), "twists", str(diagrams / "trefoil.json"))
        assert r.returncode == 2
        assert r.stderr.startswith(f"output error: cannot write {out}: ")
        assert "Traceback" not in r.stderr

    def test_unwritable_render_exit_2(self, diagrams, tmp_path):
        svg = tmp_path / "missing" / "fal.svg"
        r = run("cusp", str(diagrams / "fig8.json"), "--render", str(svg))
        assert r.returncode == 2
        assert f"output error: cannot write {svg}: " in r.stderr
        assert "Traceback" not in r.stderr


FUZZ_SOURCES = [
    catalog.trefoil, catalog.figure_eight, catalog.borromean_rings, catalog.unknot_kink,
    lambda: catalog.rational_link([2, 2, 2]), lambda: catalog.rational_link([3, -2]),
    lambda: catalog.pretzel_link([3, -2, 2]), lambda: catalog.pretzel_link([3, 3, 3]),
    lambda: catalog.two_bridge_chain(5),
]


def mutated(doc, rng):
    """A catalog diagram's JSON with one to three random changes: an entry
    changed, a crossing dropped, duplicated or rotated, the crossings
    permuted, or the components removed."""
    pd = [list(c) for c in doc["pd"]]
    top = max(e for c in pd for e in c)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("entry", "drop", "duplicate", "permute", "rotate", "components"))
        if op == "entry":
            rng.choice(pd)[rng.randrange(4)] = rng.randint(-1, top + 2)
        elif op == "drop" and len(pd) > 1:
            pd.pop(rng.randrange(len(pd)))
        elif op == "duplicate":
            pd.insert(rng.randrange(len(pd) + 1), list(rng.choice(pd)))
        elif op == "permute":
            rng.shuffle(pd)
        elif op == "rotate":
            c = rng.choice(pd)
            k = rng.randrange(1, 4)
            c[:] = c[k:] + c[:k]
        elif op == "components":
            doc = {k: v for k, v in doc.items() if k != "components"}
    return {**doc, "pd": pd}


@pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
def test_mutated_diagrams_exit_with_a_code(tmp_path):
    """Every run ends in an exit code of the CLI, never in a traceback."""
    rng = random.Random(1616)
    path = tmp_path / "mutated.json"
    codes = []
    for _ in range(300):
        path.write_text(json.dumps(mutated(json.loads(rng.choice(FUZZ_SOURCES)().to_json()), rng)))
        for argv in (["twists", path], ["augment", path, "--roundtrip"], ["cusp", path]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main([str(x) for x in argv]))
    assert set(codes) <= {0, 2, 3, 4}
    assert {0, 2, 3} <= set(codes)


# Small JSON values of every kind, and envelopes built from them: a `pd` of
# such values, of 4-entry crossings that reach validation, or of a catalog
# diagram whose other fields are arbitrary, so that some reach `cusp`.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 14) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
ENVELOPES = st.fixed_dictionaries(
    {"pd": st.one_of(
        JSON_VALUES,
        st.lists(st.lists(st.integers(-1, 14), min_size=4, max_size=4) | JSON_VALUES, max_size=6),
        st.sampled_from([json.loads(f().to_json())["pd"] for f in FUZZ_SOURCES[:5]]),
    )},
    optional={
        "components": JSON_VALUES | st.dictionaries(
            st.from_regex(r"-?\+?[0-9]{1,2}| 1|01", fullmatch=True), JSON_VALUES, max_size=5
        ),
        "signs": JSON_VALUES | st.lists(st.sampled_from([1, -1, 0, 2, True, 1.0, "1"]), max_size=6),
        "loops": JSON_VALUES,
    },
)


@settings(max_examples=300, deadline=None)
@given(doc=ENVELOPES)
def test_any_json_envelope_parses_or_is_refused(doc):
    try:
        parse_diagram(json.dumps(doc))
    except AugcuspError:
        pass


@pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
@settings(max_examples=40, deadline=None)
@given(doc=ENVELOPES)
def test_any_json_envelope_exits_with_a_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        for argv in (["augment", path, "--roundtrip"], ["cusp", path]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) in (0, 2, 3, 4)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """Small catalog diagrams, and an empty directory for outputs."""
    root = tmp_path_factory.mktemp("fuzz")
    for name, make in (
        ("trefoil", catalog.trefoil), ("fig8", catalog.figure_eight),
        ("pretzel-333", lambda: catalog.pretzel_link([3, 3, 3])),
        ("chain-5", lambda: catalog.two_bridge_chain(5)),
    ):
        (root / f"{name}.json").write_text(make().to_json())
    (root / "outputs").mkdir()
    return root


TOLS = st.sampled_from(["1e-12", "1e-9", "0.5", "0", "-1", "nan", "inf", "abc", "1e-300"])


@pytest.mark.filterwarnings("ignore::augcusp.errors.ReducibleDiagramWarning")
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_arguments_exit_with_a_code(fuzz_root, data):
    """The four subcommands in-process over diagrams, --tol strings and
    --out or --render targets (a file, a missing directory, a directory,
    /dev/full): every run ends in 0, 2, 3 or 4, argparse's usage exits
    included, and raises nothing else."""
    draw = data.draw
    diagrams = sorted(str(path) for path in fuzz_root.glob("*.json"))
    outputs = fuzz_root / "outputs"
    targets = [str(outputs / "report.json"), str(fuzz_root / "missing" / "report.json"),
               str(outputs)] + ["/dev/full"] * os.path.exists("/dev/full")
    argv = []
    if draw(st.booleans()):
        argv += ["--tol", draw(TOLS | st.text(max_size=4))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(targets))]
    command = draw(st.sampled_from(["twists", "augment", "cusp", "verify"]))
    argv.append(command)
    inputs = diagrams + [str(fuzz_root / "missing.json"), str(outputs)]
    if command in ("twists", "augment"):
        argv.append(draw(st.sampled_from(inputs)))
        argv += ["--roundtrip"] * (command == "augment" and draw(st.booleans()))
    elif command == "cusp":
        argv += draw(st.lists(st.sampled_from(inputs), max_size=1))
        argv += draw(st.sampled_from([[], ["--family", "twobridge", "1", "1"],
                                      ["--family", "twobridge", "2", "1"],
                                      ["--family", "longitude", "2"], ["--family", "twobridge", "x"],
                                      ["--family", "foo"], ["--family"]]))
        if draw(st.booleans()):
            argv += ["--render", draw(st.sampled_from(targets)).replace(".json", ".svg")]
    else:
        argv += draw(st.sampled_from([[], ["--generate", "2"], ["--generate", "0"],
                                      ["--generate", "x"], [str(fuzz_root)], [str(outputs)],
                                      [str(fuzz_root / "missing")]]))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), argv


def test_annotation_through_a_crossing_twice_exit_3(tmp_path):
    (tmp_path / "rational.json").write_text(catalog.rational_link([2, 3, 3]).to_json())
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps([{"crossings": [0, 2, 1, 7, 3, 6]}]))
    r = run("augment", str(tmp_path / "rational.json"), "--annotations", str(ann))
    assert r.returncode == 3
    assert r.stderr == "validation error: crossing 3: one annotation strand passes it twice\n"
    assert r.stdout == ""
