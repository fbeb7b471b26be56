"""Smoke tests of the benchmark: smallest inputs, one pass, schema checks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import frozen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and 0 <= doc["failed"] <= doc["attempted"]
    return doc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_end_to_end(workload):
    doc = result(run_bench(workload, 0))
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", ["pretzel-ladder", "cli-cold"])
def test_smoke_traced(workload):
    proc = run_bench(workload, 1)
    doc = result(proc)
    assert list(doc["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert "tracing overhead" in proc.stdout
    calls = "geometry.analyze_cusp.calls"
    assert doc["metrics"][calls]["value"] > 0
    assert doc["metrics"]["cli.import_s"]["value"] > 0


def test_every_operation_is_verified_or_counted_as_failed():
    import augcusp as ac

    import run

    inputs = frozen.load()
    tally = run.Tally()
    for entry in inputs["chain-ladder"][:3]:  # chain-13 is in the first three
        run.ladder_item(ac, entry, run.check_chain, tally)
    for item in frozen.roundtrip_items(inputs["pd-roundtrip"], 1, 1)[:20]:
        run.roundtrip_item(ac, item, tally)
    assert tally.attempted == sum(e["cusps"] for e in inputs["chain-ladder"][:3]) + 20
    assert tally.ok + sum(tally.failures.values()) == tally.attempted
    assert len(tally.item_s) == 3 + 20
    assert all(key.split(":")[0] for key in tally.failures)
    assert (tally.distinct_attempted, tally.distinct_failed) == (tally.attempted, tally.failed)


def test_repetitions_count_each_operation_once():
    import run

    tally = run.Tally()
    for ok in (3, 3, 2):  # the third run of the item lost a good cusp
        tally.record("chain-9", 4, ok)
    tally.record("chain-5", 2, 2)
    assert (tally.distinct_attempted, tally.distinct_failed, tally.unsteady) == (6, 2, 1)


def test_without_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("chain-ladder", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_frozen_inputs_digest_and_roundtrip_variants(tmp_path):
    inputs = frozen.load()
    pool = inputs["pd-roundtrip"]
    seven = frozen.roundtrip_items(pool, 7, 2)
    assert seven == frozen.roundtrip_items(pool, 7, 2)
    eight = frozen.roundtrip_items(pool, 8, 2)
    assert seven != eight and sorted(seven) == sorted(eight)  # same items, other order
    assert len(seven) == 2 * len(pool)
    doc = frozen.load_file()
    doc["inputs"]["chain-ladder"][0]["cusps"] += 1
    bad = tmp_path / "inputs.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="digest"):
        frozen.load(bad)


def test_tracer_wraps_names_imported_by_other_modules():
    from augcusp import augment, catalog, geometry, packing

    original = packing.normalize_at_vertex
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert geometry.normalize_at_vertex is packing.normalize_at_vertex
        assert geometry.normalize_at_vertex is not original
        al, _ = augment(catalog.figure_eight())
        geometry.analyze_cusp(al, "0")
    finally:
        tracer.uninstall()
    assert geometry.normalize_at_vertex is original
    s, self_s, calls, fail = tracer.stats["geometry.analyze_cusp"]
    assert (calls, fail) == (1, 0) and 0 < self_s < s
    assert tracer.stats["packing.normalize_at_vertex"][2] == 1
    assert tracer.stats["packing.solve_packing"][2] == 1
