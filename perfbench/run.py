"""augcusp benchmark: four closed-loop workloads, one item at a time.

    python3 perfbench/run.py --workload chain-ladder --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from ./src, and nothing is
installed.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs each
pass twice, plain and with per-function spans, and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

import frozen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Unpinned, numpy's BLAS threads in packing._refine make CPU time exceed wall time.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TOL = 1e-12  # the CLI's default solver tolerance
EXACT_TOL = 1e-6  # a larger deviation from a known exact value is a wrong answer
SETUP_REPS = 5
ROUNDTRIP_COPIES = 2  # variants of each pool diagram in a roundtrip pass
CLI_TIMEOUT_S = 120
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import augcusp.cli; "
    "print(time.perf_counter() - t)"
)
LOOP_N = 10_000  # the reference loop's length: ~2.5 ms on the baseline host
LOOP_NOMINAL_S = 0.0025  # in-process times: seconds on a host that runs it in 2.5 ms
TICK_S = 0.2  # in-process host speed sampling interval
PAD_S = 0.1  # an item's time is scaled by the reference samples in its span +- PAD_S
SPAWN_NOMINAL_S = 0.07  # subprocess times: seconds on a host that starts python in 70 ms
WORKLOADS = ("chain-ladder", "pretzel-ladder", "pd-roundtrip", "cli-cold")
CLI_SUBCOMMANDS = ("cusp", "verify", "augment")


class Tally:
    """Outcomes of a run: operations attempted, good, failed by stage and type.

    `attempted`, `ok` and `failures` count every repetition; `outcomes`
    counts each distinct operation once, as failed if any repetition of it
    failed, so that it does not depend on how many passes fit in a run."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.outcomes: dict[str, list[int]] = {}  # item -> [operations, good in every run]
        self.unsteady = 0  # repetitions whose good count differs from the first run
        self.failures: Counter[str] = Counter()  # "stage:kind" -> operations
        self.messages: dict[str, str] = {}  # first message per failure key
        self.spans: list[tuple[float, float]] = []  # start and end of each item
        self.exact_err: list[float] = []  # deviations from known exact values

    def fail(self, key: str, count: int = 1, message: str = "") -> None:
        self.failures[key] += count
        self.messages.setdefault(key, message[:200])

    def record(self, item: str, operations: int, ok: int) -> None:
        """One run of `item`: `ok` of its `operations` were good."""
        seen = self.outcomes.setdefault(item, [operations, ok])
        if seen[1] != ok:
            self.unsteady += 1
            seen[1] = min(seen[1], ok)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.ok += other.ok
        self.unsteady += other.unsteady
        for item, (operations, ok) in other.outcomes.items():
            self.record(item, operations, ok)
        self.failures.update(other.failures)
        for k, v in other.messages.items():
            self.messages.setdefault(k, v)
        self.spans += other.spans
        self.exact_err += other.exact_err

    def item_done(self, t0: float) -> None:
        self.spans.append((t0, perf_counter()))

    @property
    def item_s(self) -> list[float]:
        """Wall time of each item."""
        return [t1 - t0 for t0, t1 in self.spans]

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def distinct_attempted(self) -> int:
        return sum(n for n, _ in self.outcomes.values())

    @property
    def distinct_failed(self) -> int:
        return sum(n - ok for n, ok in self.outcomes.values())


def loop_s() -> float:
    """One run of a fixed pure-Python loop (dict, float and call work)."""
    t0 = perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(LOOP_N):
        k = i % 97
        table[k] = table.get(k, 0.0) + math.sqrt(i * 0.5)
        acc += table[k]
    return perf_counter() - t0


def spawn_s() -> float:
    """Wall time of `python3 -c pass` in a fresh process."""
    t0 = perf_counter()
    _run_child(["-c", "pass"])
    return perf_counter() - t0


class HostSpeed:
    """Samples of the shared host's speed, to scale item times to a nominal speed.

    The host runs the same Python loop up to 1.5 times slower from one half
    minute to the next, which swamps the bounds.  So a reference is timed
    while the workload runs, and each item's time is multiplied by the
    reference's nominal time over the mean of the reference samples within
    PAD_S of the item, or the nearest one.  In-process work is sampled every
    TICK_S by `loop_s` from a timer signal, so that a 15-second item is
    sampled throughout; CLI commands are bracketed by `spawn_s`, which
    tracks a subprocess better than the loop (15-second medians of a command
    spread 2.7 % against 7 %).
    The program never runs the reference, so a change to the program moves
    raw and scaled times alike.  Raw wall times are reported in `detail`.
    """

    def __init__(self, reference, nominal: float):
        self.reference = reference
        self.nominal = nominal
        reference()  # the first run is slow: caches, loop specialization
        self.samples: list[tuple[float, float]] = []  # (time, reference seconds)
        self.sample()

    def sample(self, *_signal) -> None:
        t0 = perf_counter()
        took = self.reference()
        self.samples.append((t0 + took / 2, took))

    @contextlib.contextmanager
    def ticking(self):
        """Sample every TICK_S from SIGALRM while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """Item times at the nominal speed."""
        times = [t for t, _ in self.samples]
        out = []
        for t0, t1 in spans:
            lo = bisect.bisect_left(times, t0 - PAD_S)
            hi = bisect.bisect_right(times, t1 + PAD_S)
            if lo == hi:  # no sample near: take the closest one
                lo = min(range(len(times)), key=lambda i: abs(times[i] - t1))
                hi = lo + 1
            ref = statistics.fmean(r for _, r in self.samples[lo:hi])
            out.append((t1 - t0) * self.nominal / ref)
        return out


def pin_to_one_cpu() -> int:
    """Run this process and its children on one CPU, the one the reference
    is timed on: the CPUs of a shared host can differ in speed.  Returns the
    number of CPUs the process had."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):  # not supported: run unpinned
        return os.cpu_count() or 1
    return len(cpus)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S,
    )


def measure_setup(workload: str, reps: int) -> dict:
    """Set-up, repeated: cold import of augcusp.cli in a fresh interpreter,
    and loading the frozen inputs (digest check included).  Each repetition
    is also scaled by the `python3 -c pass` time measured with it."""
    interp, imports, loads, scaled = [], [], [], []
    spawn_s()  # warm the file cache
    for _ in range(reps):
        interp.append(spawn_s())
        imports.append(float(_run_child(["-c", IMPORT_PROBE]).stdout))
        t0 = perf_counter()
        inputs = frozen.load()[workload]
        loads.append(perf_counter() - t0)
        scaled.append((imports[-1] + loads[-1]) * SPAWN_NOMINAL_S / interp[-1])
    return {
        "inputs": inputs,
        "interpreter_s": statistics.median(interp),
        "import_s": statistics.median(imports),
        "load_s": statistics.median(loads),
        "scaled_s": statistics.median(scaled),
    }


# -- ladders --------------------------------------------------------------------


def _finite_report(rep) -> bool:
    s = rep.shape
    vals = (s.meridian_length, s.longitude_length, s.height, rep.width)
    return all(math.isfinite(v) and v > 0 for v in vals)


def check_chain(rep, tally: Tally) -> str | None:
    """Knotting strands of a regular fully augmented link have meridian 2."""
    if not _finite_report(rep):
        return "check:non-finite"
    if rep.kind == "knotting":
        err = abs(rep.shape.meridian_length - 2.0)
        tally.exact_err.append(err)
        if err > EXACT_TOL:
            return "check:meridian-not-2"
    return None


def check_pretzel(rep, tally: Tally) -> str | None:
    """Knotting strands obey the bounds meridian in [2, 4), width in [1, 2)."""
    if not _finite_report(rep):
        return "check:non-finite"
    if rep.kind == "knotting":
        m, w = rep.shape.meridian_length, rep.width
        if not (2.0 - 1e-9 <= m < 4.0 and 1.0 - 1e-9 <= w < 2.0):
            return "check:outside-bounds"
    return None


def ladder_item(ac, entry: dict, check, tally: Tally) -> None:
    """parse -> twist regions -> augment -> nerve -> packing -> every cusp."""
    ok = tally.ok
    _ladder_item(ac, entry, check, tally)
    tally.record(entry["name"], entry["cusps"], tally.ok - ok)


def _ladder_item(ac, entry: dict, check, tally: Tally) -> None:
    expected = entry["cusps"]
    tally.attempted += expected
    reports, failures = [], []
    stage = "parse_diagram"
    t0 = perf_counter()
    try:
        d = ac.parse_diagram(entry["pd"])
        stage = "detect_twist_regions"
        regions = ac.detect_twist_regions(d)
        stage = "augment"
        al, _ = ac.augment(d, regions)
        stage = "build_nerve"
        nerve = ac.build_nerve(al)
        stage = "solve_packing"
        packing = ac.solve_packing(nerve, tol=TOL)
        cusps = nerve.cusps()
        for cusp in cusps:
            try:
                reports.append(
                    ac.analyze_cusp(al, cusp, tol=TOL, packing=packing, nerve=nerve)
                )
            except Exception as exc:  # recorded per cusp; the pass goes on
                failures.append((f"analyze_cusp:{type(exc).__name__}", str(exc)))
    except Exception as exc:  # a failed stage fails every cusp of the diagram
        tally.item_done(t0)
        tally.fail(f"{stage}:{type(exc).__name__}", expected, f"{entry['name']}: {exc}")
        return
    tally.item_done(t0)
    if len(cusps) != expected:
        tally.fail("check:cusp-count", expected, f"{entry['name']}: {len(cusps)} cusps")
        return
    for key, message in failures:
        tally.fail(key, 1, f"{entry['name']}: {message}")
    for rep in reports:
        problem = check(rep, tally)
        if problem:
            tally.fail(problem, 1, f"{entry['name']}: cusp {rep.cusp}")
        else:
            tally.ok += 1


# -- pd roundtrip -------------------------------------------------------------


def roundtrip_item(ac, item: tuple, tally: Tally) -> None:
    """parse -> twist regions -> augment -> untwist/retwist -> isomorphism
    with the input -> isomorphism of the input with its reshuffle."""
    name = item[0]
    ok = tally.ok
    _roundtrip_item(ac, item, tally)
    tally.record(name, 1, tally.ok - ok)


def _roundtrip_item(ac, item: tuple, tally: Tally) -> None:
    name, text, reshuffled = item
    tally.attempted += 1
    stage = "parse_diagram"
    t0 = perf_counter()
    try:
        d = ac.parse_diagram(text)
        stage = "detect_twist_regions"
        regions = ac.detect_twist_regions(d)
        stage = "augment"
        ac.augment(d, regions)
        stage = "untwist_retwist_roundtrip"
        rt = ac.untwist_retwist_roundtrip(d, regions)
        stage = "pd_isomorphic"
        same_rt = ac.pd_isomorphic(rt, d)
        stage = "parse_diagram"
        d2 = ac.parse_diagram(reshuffled)
        stage = "pd_isomorphic"
        same_input = ac.pd_isomorphic(d, d2)
    except Exception as exc:  # recorded per item; the pass goes on
        tally.item_done(t0)
        tally.fail(f"{stage}:{type(exc).__name__}", 1, f"{name}: {exc}")
        return
    tally.item_done(t0)
    if not same_rt:
        tally.fail("check:roundtrip-not-isomorphic", 1, name)
    elif not same_input:
        tally.fail("check:reshuffle-not-isomorphic", 1, name)
    else:
        tally.ok += 1


# -- cli cold start -------------------------------------------------------------


def _report_meridians(doc: dict, tally: Tally) -> str | None:
    for rep in doc["cusps"].values():
        if rep["kind"] == "knotting":
            err = abs(rep["meridian_length"] - 2.0)
            tally.exact_err.append(err)
            if err > EXACT_TOL:
                return "meridian-not-2"
    return None


def _check_square(out, err, work, tally):
    rep = json.loads(out)["cusp_report"]
    errs = [
        abs(rep["meridian_length"] - 4.0),
        abs(rep["longitude_length"] - 4.0),
        abs(rep["height"] - 0.5),
    ]
    tally.exact_err += errs
    return None if max(errs) <= EXACT_TOL else "not-square-4x4-height-half"


def _check_certificate(out, err, work, tally):
    cert = json.loads(out)["certificate"]
    return None if cert is not None and cert["bound"] == 4.0 else "no-certificate"


def _check_verify(out, err, work, tally):
    return None if json.loads(out)["all_pass"] else "verify-not-all-pass"


def _check_roundtrip(out, err, work, tally):
    return None if "roundtrip ok" in err else "roundtrip-not-ok"


def _check_render(out, err, work, tally):
    problem = _report_meridians(json.loads(out), tally)
    for svg in (work / "render.svg", work / "render.horoballs.svg"):
        if not svg.is_file() or "<svg" not in svg.read_text():
            return "svg-missing"
        svg.unlink()
    return problem


def _check_cusps(out, err, work, tally):
    return _report_meridians(json.loads(out), tally)


# name, argv (run in the work directory, which holds the frozen inputs), check
COMMANDS = (
    ("twobridge-1-1", ["cusp", "--family", "twobridge", "1", "1"], _check_square),
    ("longitude-5", ["cusp", "--family", "longitude", "5"], _check_certificate),
    ("verify-4", ["verify", "--generate", "4"], _check_verify),
    ("augment-pretzel-5432", ["augment", "pretzel-5432.json", "--roundtrip"], _check_roundtrip),
    ("chain-9-render", ["cusp", "chain-9.json", "--render", "render.svg"], _check_render),
    ("chain-13", ["cusp", "chain-13.json"], _check_cusps),
)


def cli_command(spec, work: Path, tally: Tally, tracer: spans.Tracer | None,
                per_command: dict) -> None:
    """One `augcusp` subprocess, timed from spawn to exit, then checked."""
    ok = tally.ok
    _cli_command(spec, work, tally, tracer, per_command)
    tally.record(spec[0], 1, tally.ok - ok)


def _cli_command(spec, work: Path, tally: Tally, tracer: spans.Tracer | None,
                 per_command: dict) -> None:
    name, argv, check = spec
    trace_out = work / "trace.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "augcusp.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *argv]
    tally.attempted += 1
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=work, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        tally.item_done(t0)
        tally.fail(f"cli.{name}:timeout", 1, " ".join(argv))
        return
    tally.item_done(t0)
    if tracer is None:
        per_command.setdefault(name, []).append(tally.spans[-1][1] - t0)
    elif trace_out.is_file():
        tracer.merge(json.loads(trace_out.read_text()))
        trace_out.unlink()
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        tally.fail(f"cli.{name}:exit-{proc.returncode}", 1, last[0])
        return
    try:
        problem = check(proc.stdout, proc.stderr, work, tally)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable-output ({type(exc).__name__})"
    if problem:
        tally.fail(f"cli.{name}:{problem}", 1, " ".join(argv))
    else:
        tally.ok += 1


# -- passes and run -------------------------------------------------------------


def make_pass(workload: str, inputs, seed: int, smoke: bool, work: Path,
              per_command: dict):
    """The workload's pass and its first inputs.

    one_pass(index, tally, tracer, speed) runs pass `index`, one item at a
    time; the cli pass hands `tracer` to its children and samples `speed`
    after each command."""
    rng = random.Random(seed)
    if workload in ("chain-ladder", "pretzel-ladder"):
        import augcusp as ac

        items = inputs[:2] if smoke else list(inputs)
        rng.shuffle(items)
        check = check_chain if workload == "chain-ladder" else check_pretzel

        def one_pass(index, tally, tracer, speed):
            for entry in items:
                gc.collect()  # each item starts clean, whatever ran before it
                ladder_item(ac, entry, check, tally)

        return one_pass, [e["pd"] for e in items]
    if workload == "pd-roundtrip":
        import augcusp as ac

        items = frozen.roundtrip_items(inputs, seed, ROUNDTRIP_COPIES)
        items = items[:5] if smoke else items

        def one_pass(index, tally, tracer, speed):
            for item in items:
                roundtrip_item(ac, item, tally)

        return one_pass, items
    for key, text in inputs.items():
        (work / f"{key}.json").write_text(text)
    commands = COMMANDS[:2] if smoke else COMMANDS

    def one_pass(index, tally, tracer, speed):
        order = list(commands)
        random.Random(f"{seed}/{index}").shuffle(order)
        for spec in order:
            cli_command(spec, work, tally, tracer, per_command)
            speed.sample()

    return one_pass, inputs


def run_loop(one_pass, seconds: float, traced: bool, speed: HostSpeed):
    """Whole passes while the next one is expected to end within `seconds`.

    Returns the plain tally, the traced tally, the tracer, and the start and
    end of each plain and each traced pass."""
    plain, traced_tally = Tally(), Tally()
    tracer = spans.Tracer() if traced else None
    plain_passes, traced_passes = [], []
    start = perf_counter()
    last = 0.0
    index = 0
    while index == 0 or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        one_pass(index, plain, None, speed)
        plain_passes.append((t0, perf_counter()))
        if tracer is not None:
            tracer.install()
            t1 = perf_counter()
            try:
                one_pass(index, traced_tally, tracer, speed)
            finally:
                traced_passes.append((t1, perf_counter()))
                tracer.uninstall()
        last = perf_counter() - t0
        index += 1
    return plain, traced_tally, tracer, plain_passes, traced_passes


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(nproc: int) -> dict:
    import numpy

    return {
        "nproc": nproc,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def end_to_end(workload, tally: Tally, setup: dict, scaled_s: list[float]) -> dict:
    """The gated metrics; times are scaled to the nominal host speed."""
    return {
        "setup_s": (setup["scaled_s"], "s"),
        "ok_per_s": (tally.ok / sum(scaled_s), "1/s"),
        "item_s_p90": (quantile(scaled_s, 90), "s"),
        "ok_ratio": (tally.ok / tally.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }


def named_metrics(workload: str, tally: Tally) -> dict:
    """The workload's metrics under their per-workload names, in wall time."""
    busy = sum(tally.item_s)
    out = {
        "fail_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio",
                       "base": f"{tally.failed}/{tally.attempted}"},
    }
    rate = {"value": tally.ok / busy, "unit": "1/s", "samples": len(tally.item_s)}
    if workload in ("chain-ladder", "pretzel-ladder"):
        out["cusps_per_s"] = rate
    elif workload == "pd-roundtrip":
        out["diagrams_per_s"] = rate
    else:
        for q in (50, 90):
            out[f"cmd_s_p{q}"] = {"value": quantile(tally.item_s, q), "unit": "s",
                                  "samples": len(tally.item_s)}
    if workload in ("chain-ladder", "cli-cold"):
        out["exact_err_max"] = {
            "value": max(tally.exact_err) if tally.exact_err else None,
            "unit": "1", "samples": len(tally.exact_err),
        }
    return out


def per_layer(tracer: spans.Tracer, passes: int, setup: dict, overhead_s: float,
              factor: float) -> dict:
    """Per-layer metrics per traced pass.  Function times are multiplied by
    `factor`, the traced passes' host-speed scale; the interpreter and import
    times are raw, as references."""
    out = {}
    scale = (factor, factor, 1, 1)
    units = ("s", "s", "count", "count")
    for name, row in tracer.stats.items():
        for field, unit, k, v in zip(spans.FIELDS, units, scale, row):
            out[f"{name}.{field}"] = (v * k / passes, unit)
    out["packing.residual_rel_max"] = (tracer.residual_rel_max, "ratio")
    out["cli.interpreter_s"] = (setup["interpreter_s"], "s")
    out["cli.import_s"] = (
        statistics.median(tracer.cli_import_s) if tracer.cli_import_s else setup["import_s"],
        "s",
    )
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.s"] = (tracer.cli_main_s[sub] * factor / passes, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def print_layer_table(layer: dict, passes: int, plain_s: list, traced_s: list) -> None:
    print(f"per-layer, per traced pass ({passes} passes):")
    print(f"  {'function':42s} {'calls':>9s} {'s':>10s} {'self_s':>10s} {'fail':>6s}")
    rows = sorted(spans.FUNCTIONS, key=lambda n: -layer[f"{n}.self_s"][0])
    for n in rows:
        if layer[f"{n}.calls"][0]:
            print(f"  {n:42s} {layer[f'{n}.calls'][0]:9.1f} {layer[f'{n}.s'][0]:10.4f}"
                  f" {layer[f'{n}.self_s'][0]:10.4f} {layer[f'{n}.fail'][0]:6.1f}")
    print(f"  untraced pass {statistics.median(plain_s):.4f} s, traced pass "
          f"{statistics.median(traced_s):.4f} s (raw medians); tracing overhead "
          f"{layer['trace.overhead_s'][0]:.4f} s per pass (scaled)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="augcusp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs and one set-up, for the benchmark's tests")
    args = ap.parse_args(argv)
    if not (SRC / "augcusp" / "__init__.py").is_file():
        print(f"perfbench: no augcusp sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported here or in a child
        os.environ[var] = "1"
    nproc = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))

    setup = measure_setup(args.workload, 1 if args.smoke else SETUP_REPS)
    if args.workload == "cli-cold":
        speed = HostSpeed(spawn_s, SPAWN_NOMINAL_S)  # sampled between commands
        sampling = contextlib.nullcontext()
    else:
        speed = HostSpeed(loop_s, LOOP_NOMINAL_S)
        sampling = speed.ticking()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        per_command: dict[str, list[float]] = {}
        one_pass, used = make_pass(args.workload, setup["inputs"], args.seed,
                                   args.smoke, Path(tmp), per_command)
        with sampling:
            plain, traced, tracer, plain_passes, traced_passes = run_loop(
                one_pass, args.seconds, bool(args.trace), speed
            )
    everything = Tally()
    everything.add(plain)
    everything.add(traced)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain_passes),
        "operations_run": everything.attempted,
        "operations_failed_run": everything.failed,
        "unsteady_repetitions": everything.unsteady,
        "pass_s_median": statistics.median(t1 - t0 for t0, t1 in plain_passes),
        "frozen_digest": frozen.load_file()["digest"],
        "pass0_inputs_digest": frozen.digest(used),
        "setup": {k: setup[k] for k in ("interpreter_s", "import_s", "load_s")},
        "reference_s": {
            "median": statistics.median(r for _, r in speed.samples),
            "min": min(r for _, r in speed.samples),
            "max": max(r for _, r in speed.samples),
            "samples": len(speed.samples),
        },
        "metrics": named_metrics(args.workload, plain),
        "failures": dict(sorted(everything.failures.items())),
        "failure_messages": dict(sorted(everything.messages.items())),
        "env": environment(nproc),
    }
    if per_command:
        detail["command_s_median"] = {
            k: statistics.median(v) for k, v in sorted(per_command.items())
        }
    # Every operation is either verified or counted, by stage, as failed, and
    # every pass runs the same operations.
    correct = (sum(everything.failures.values()) == everything.failed
               and everything.attempted % everything.distinct_attempted == 0)
    if args.trace:
        n = len(traced_passes)
        overhead = (sum(speed.scaled(traced_passes)) - sum(speed.scaled(plain_passes))) / n
        factor = sum(speed.scaled(traced.spans)) / sum(traced.item_s)
        metrics = per_layer(tracer, n, setup, overhead, factor)
        print_layer_table(metrics, n, [t1 - t0 for t0, t1 in plain_passes],
                          [t1 - t0 for t0, t1 in traced_passes])
    else:
        metrics = end_to_end(args.workload, plain, setup, speed.scaled(plain.spans))
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": everything.distinct_attempted,
        "failed": everything.distinct_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
