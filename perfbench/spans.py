"""Per-layer spans for the traced benchmark run, recorded from outside the program.

`Tracer.install` wraps the public functions of each augcusp module.  A
wrapper replaces every module attribute that refers to the function, so a
caller that imported it by name (geometry and cli import normalize_at_vertex
from packing) is measured too.  Spans are folded into per-function totals as
they close: inclusive seconds, self seconds (inclusive minus the time covered
by wrapped callees), calls, and calls that raised.  A function that re-enters
itself through its wrapper would count the inner time twice; none of the
targets does.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, attribute path); metrics are named "<module>.<attribute path>.<field>".
TARGETS = (
    ("diagram", "parse_diagram"),
    ("diagram", "compute_faces"),
    ("diagram", "detect_twist_regions"),
    ("diagram", "pd_isomorphic"),
    ("augment", "augment"),
    ("augment", "untwist_retwist_roundtrip"),
    ("packing", "build_nerve"),
    ("packing", "solve_packing"),
    ("packing", "solve_flower_radii"),
    ("packing", "normalize_at_vertex"),
    ("mobius", "Circline.apply"),
    ("mobius", "tangency_residual"),
    ("geometry", "analyze_cusp"),
    ("geometry", "assemble"),
    ("geometry", "cusp_shape"),
    ("geometry", "cusp_lattice"),
    ("geometry", "maximal_cusp"),
    ("geometry", "verify_meridian_bound"),
    ("families", "fal_corpus"),
    ("families", "gen_twobridge_family"),
    ("families", "gen_longitude_family"),
    ("families", "three_punctured_certificate"),
    ("render", "packing_svg"),
    ("render", "horoball_svg"),
)
FIELDS = ("s", "self_s", "calls", "fail")
FUNCTIONS = tuple(f"{m}.{a}" for m, a in TARGETS)


class Tracer:
    def __init__(self):
        # name -> [inclusive s, self s, calls, raised]
        self.stats = {name: [0.0, 0.0, 0, 0] for name in FUNCTIONS}
        # max over successful solve_packing calls of max_residual()/scale()
        self.residual_rel_max = 0.0
        self._open: list[float] = []  # time covered by children, per open span
        self._undo: list[tuple[object, str, object]] = []
        self._paused = False
        # CLI children (cli-cold): command time per subcommand, import times
        self.cli_main_s: Counter[str] = Counter()
        self.cli_import_s: list[float] = []

    def install(self) -> None:
        for mod_name, _ in TARGETS:
            importlib.import_module(f"augcusp.{mod_name}")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "augcusp" or name.startswith("augcusp."))
        ]
        for mod_name, path in TARGETS:
            owner = sys.modules[f"augcusp.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{path}", original)
            if outer:  # a method: patch the class only
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        open_spans = self._open
        health = self._packing_health if name == "packing.solve_packing" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                dt = perf_counter() - t0
                covered = open_spans.pop()
                stats[0] += dt
                stats[1] += dt - covered
                stats[2] += 1
                if open_spans:
                    open_spans[-1] += dt
            if health is not None:
                health(result)
            return result

        return wrapper

    def _packing_health(self, packing) -> None:
        # Computed with the wrappers bypassed; its time is hidden from the
        # caller's self time, so it only shows as tracing overhead.
        t0 = perf_counter()
        self._paused = True
        try:
            rel = packing.max_residual() / packing.scale()
        finally:
            self._paused = False
        self.residual_rel_max = max(self.residual_rel_max, rel)
        if self._open:
            self._open[-1] += perf_counter() - t0

    def merge(self, child: dict) -> None:
        """Add the report of a traced CLI child (see cli_child.py)."""
        for name, row in child["stats"].items():
            mine = self.stats[name]
            for i, v in enumerate(row):
                mine[i] += v
        self.residual_rel_max = max(self.residual_rel_max, child["residual_rel_max"])
        self.cli_main_s[child["command"]] += child["main_s"]
        self.cli_import_s.append(child["import_s"])

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "residual_rel_max": self.residual_rel_max,
        }
