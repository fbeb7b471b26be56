"""Command line front end: parse, detect, augment, pack, measure, report.

Reports are deterministic JSON on stdout (or --out); a short human summary
goes to stderr.  Exit codes: 0 success, 2 parse or usage error (an input
that cannot be read, an output that cannot be written), 3 validation
error, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

from .augment import _refill, augment, ledger_json
from .diagram import (
    detect_twist_regions,
    parse_diagram,
    pd_isomorphic,
    validate_generalized_region,
)
from .errors import AugcuspError, ConvergenceError, DiagramInvariantError, PDSyntaxError

# families, geometry, packing and render are imported by the commands that
# use them, so that `twists`, `augment` and `cusp --family longitude` never
# load numpy.  render and geometry import packing before numpy, so all three
# compile before numpy loads (see the note in geometry.py).

log = logging.getLogger("augcusp")

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4


class _OutputError(Exception):
    """An output that cannot be written, a path or a closed stdout (exit 2)."""


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(doc, args) -> None:
    text = json.dumps(doc, sort_keys=True)
    if getattr(args, "out", None):
        _write(args.out, text + "\n")
        return
    try:
        print(text, flush=True)
    except OSError as exc:  # a closed pipe, a full disk
        # Python flushes stdout again at exit: send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise _OutputError(f"cannot write stdout: {exc.strerror or exc}") from None


def _say(msg: str) -> None:
    try:
        print(msg, file=sys.stderr, flush=True)
    except OSError:  # a closed stderr: drop the line; the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def _read_diagram(path: str):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PDSyntaxError(f"cannot read {path}: {exc}") from exc
    return parse_diagram(text)


def _read_annotations(path: str) -> list[dict]:
    """A JSON list of {"crossings": [int, ...], "strands": int} regions
    ("strands" optional): exit 2 if the file cannot be read or is not JSON,
    exit 3 for any other shape."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise PDSyntaxError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, list) or not all(
        isinstance(a, dict)
        and isinstance(a.get("crossings"), list)
        and all(type(c) is int for c in a["crossings"])
        and type(a.get("strands", 0)) is int
        for a in doc
    ):
        raise DiagramInvariantError(
            f'{path}: expected a list of {{"crossings": [int, ...]}} objects'
        )
    return doc


def cmd_twists(args) -> int:
    d = _read_diagram(args.input)
    regions = detect_twist_regions(d)
    doc = {
        "crossings": len(d.crossings),
        "regions": [
            {
                "crossings": r.crossings,
                "count": r.crossing_count,
                "full_twists": r.full_twists,
                "half_twist": r.half_twist,
                "cycle": r.is_cycle,
            }
            for r in regions
        ],
    }
    _emit(doc, args)
    _say(
        f"{len(regions)} region(s): "
        + ", ".join(f"{r.crossing_count} crossings" for r in regions)
    )
    return 0


def cmd_augment(args) -> int:
    d = _read_diagram(args.input)
    regions = None
    if args.annotations:
        regions = [
            validate_generalized_region(d, a["crossings"], a.get("strands"))
            for a in _read_annotations(args.annotations)
        ]
    al, ledger = augment(d, regions)
    if args.roundtrip:
        rt = _refill(al, ledger)
        if not pd_isomorphic(rt, d):
            _say("roundtrip FAILED: refilled diagram is not isomorphic")
            return EXIT_VALIDATION
        _say("roundtrip ok: refilled diagram isomorphic to input")
    doc = {
        "link": json.loads(al.to_json()),
        "ledger": json.loads(ledger_json(ledger)),
    }
    _emit(doc, args)
    _say(
        f"{len(al.circles)} crossing circle(s); ledger: "
        + (ledger_json(ledger) if ledger else "(no nontrivial fillings)")
    )
    return 0


def _render_to(path: str, content: str) -> None:
    _write(path, content)
    _say(f"wrote {path}")


def _family_ints(family: list[str]) -> list[int]:
    try:
        return [int(x) for x in family[1:]]
    except ValueError:
        raise DiagramInvariantError(
            f"--family {family[0]} takes integers, got {' '.join(family[1:])!r}"
        ) from None


def cmd_cusp(args) -> int:
    if args.input and args.family:
        raise PDSyntaxError(
            f"give a diagram file or --family, not both: {args.input} and "
            f"--family {' '.join(args.family)}"
        )
    kind = args.family[0] if args.family else None
    if kind == "longitude":
        return _cusp_longitude(args)
    if kind not in (None, "twobridge"):
        raise DiagramInvariantError(f"unknown family {kind!r}")
    if kind:
        from . import families

        if len(args.family) < 2:
            raise DiagramInvariantError("need: --family twobridge n r1 [r2 ...]")
        n, *r = _family_ints(args.family)
        if n < 1:
            raise DiagramInvariantError(f"--family twobridge needs n >= 1, got {n}")
        fam = families.gen_twobridge_family(n, r)
        al, target = fam.parent, families.twobridge_middle_circle(fam)
    elif args.input:
        al, _ = augment(_read_diagram(args.input))
    else:
        raise PDSyntaxError("need an input diagram or --family")
    from . import render
    from .geometry import analyze_cusp
    from .packing import build_nerve, normalize_at_vertex, solve_packing

    nerve = build_nerve(al)
    packing = solve_packing(nerve, tol=args.tol)
    cusps = [target] if kind else nerve.cusps()
    reports = {c: analyze_cusp(al, c, tol=args.tol, packing=packing) for c in cusps}
    if kind:
        _emit({
            "family": "twobridge",
            "n": n,
            "r": r,
            "cusp_report": reports[target].to_dict(),
            "filled_ledger": json.loads(ledger_json(fam.ledger)),
        }, args)
        s = reports[target].shape
        _say(
            f"two-bridge parent n={n}: cusp {target}: meridian "
            f"{s.meridian_length:.6f}, longitude {s.longitude_length:.6f}, "
            f"height {s.height:.6f}"
        )
    else:
        target = (nerve.knotting_cusps or cusps)[0]
        _emit({"cusps": {c: rep.to_dict() for c, rep in reports.items()}}, args)
        for c, rep in reports.items():
            s = rep.shape
            _say(
                f"cusp {c} ({rep.kind}): meridian {s.meridian_length:.6f}, "
                f"longitude {s.longitude_length:.6f}"
            )
    if args.render:
        norm = normalize_at_vertex(packing, nerve.cusp_edges[target][0])
        _render_to(args.render, render.packing_svg(norm))
        if not kind:
            horo_path = str(Path(args.render).with_suffix(".horoballs.svg"))
            _render_to(horo_path, render.horoball_svg(norm))
    return 0


def _cusp_longitude(args) -> int:
    if args.render:
        raise PDSyntaxError(
            "--render draws a packing, which --family longitude does not build: "
            f"--family {' '.join(args.family)} and --render {args.render}"
        )
    from . import families

    if len(args.family) != 2:
        raise DiagramInvariantError("need: --family longitude n")
    (n,) = _family_ints(args.family)
    if n < 0:
        raise DiagramInvariantError(f"--family longitude needs n >= 0, got {n}")
    al = families.gen_longitude_family(n)
    inv = families.longitude_family_invariants(al)
    cert = families.three_punctured_certificate(al, "K")
    doc = {
        "family": "longitude",
        "n": n,
        "invariants": inv,
        "certificate": None
        if cert is None
        else {
            "bound": cert.bound,
            "side_punctures": list(cert.side_punctures),
            "statement": cert.statement,
        },
    }
    _emit(doc, args)
    if cert is not None:
        _say(f"n={n}: longitude <= 4 (3-punctured sphere)")
    else:
        _say(f"n={n}: no certificate")
    return 0


def cmd_verify(args) -> int:
    if args.corpus and args.generate:
        raise PDSyntaxError(
            f"give a corpus directory or --generate, not both: {args.corpus} and "
            f"--generate {args.generate}"
        )
    from . import families
    from .geometry import verify_meridian_bound

    corpus: list = []
    if args.generate:
        corpus = families.fal_corpus(args.generate)
    elif args.corpus:
        root = Path(args.corpus)
        if not root.is_dir():
            raise PDSyntaxError(f"{args.corpus} is not a directory")
        paths = sorted(root.glob("*.json"))
        if not paths:
            raise PDSyntaxError(f"{args.corpus} holds no *.json diagram")
        for path in paths:
            d = _read_diagram(str(path))
            al, _ = augment(d)
            corpus.append((path.stem, al))
    else:
        raise PDSyntaxError("need a corpus directory or --generate")
    report = verify_meridian_bound(corpus, tol=args.tol)
    _emit(report, args)
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for e in report["entries"]:
        counts[e["status"]] += 1
        if e["status"] == "PASS":
            _say(
                f"PASS {e['name']}/{e['cusp']}: meridian {e['meridian_length']:.9f} "
                f"(margin {e['meridian_margin']:.2e}), width {e['reflection_width']:.9f}"
            )
        elif e["status"] == "FAIL":
            _say(f"FAIL {e['name']}/{e.get('cusp','?')}")
        else:
            _say(f"SKIP {e['name']}: {e.get('reason', '')}")
    _say(
        f"{counts['PASS']} pass, {counts['FAIL']} fail, {counts['SKIP']} skipped"
    )
    return 0 if report["all_pass"] else EXIT_VALIDATION


def _tolerance(text: str) -> float:
    """The solver tolerance, a finite float > 0: any other value is a usage
    error (exit 2), not a solver failure."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return tol


def _positive_int(text: str) -> int:
    """A count of at least 1: any other value is a usage error (exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="augcusp",
        description=(
            "augmented link diagrams, circle packings and cusp geometry"
        ),
    )
    ap.add_argument("--tol", type=_tolerance, default=1e-12, help="solver tolerance (finite, > 0)")
    ap.add_argument("--out", help="write the JSON report to this file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("twists", help="detect twist regions")
    p.add_argument("input")
    p.set_defaults(func=cmd_twists)

    p = sub.add_parser("augment", help="insert crossing circles")
    p.add_argument("input")
    p.add_argument("--annotations", help="JSON file of generalized regions")
    p.add_argument(
        "--roundtrip",
        action="store_true",
        help="check that refilling reproduces the input",
    )
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("cusp", help="cusp geometry of an augmented link")
    p.add_argument("input", nargs="?")
    p.add_argument(
        "--family",
        nargs="+",
        help="twobridge n r1 [r2 ...] | longitude n",
    )
    p.add_argument("--render", help="write an SVG of the normalized packing")
    p.set_defaults(func=cmd_cusp)

    p = sub.add_parser("verify", help="meridian/width bound suite")
    p.add_argument("corpus", nargs="?", help="directory of diagram JSON files")
    p.add_argument(
        "--generate",
        type=_positive_int,
        metavar="MAX_CIRCLES",
        help="use the generated corpus up to this many crossing circles "
        "(it stops at 4: larger values give the same corpus)",
    )
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    sys.stderr = sys.stderr or open(os.devnull, "w")  # None where fd 2 was closed at start
    level = os.environ.get("AUGCUSP_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, 30))
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except PDSyntaxError as exc:
        _say(f"parse error: {exc}")
        return EXIT_PARSE
    except _OutputError as exc:
        _say(f"output error: {exc}")
        return EXIT_PARSE
    except ConvergenceError as exc:
        _say(f"solver did not converge: {exc} (worst residual {exc.worst_residual:.3e})")
        return EXIT_SOLVER
    except AugcuspError as exc:
        _say(f"validation error: {exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
