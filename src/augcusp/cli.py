"""Command line front end: parse, detect, augment, pack, measure, report.

Reports are deterministic JSON on stdout (or --out); a short human summary
goes to stderr.  Exit codes: 0 success, 2 parse error, 3 validation error,
4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import families, render
from .augment import SlopeLedger, apply_filling, augment, untwist_retwist_roundtrip
from .diagram import (
    detect_twist_regions,
    parse_diagram,
    pd_isomorphic,
    validate_generalized_region,
)
from .errors import (
    ConvergenceError,
    DiagramInvariantError,
    PDSyntaxError,
    UnsupportedLinkError,
)
from .geometry import analyze_cusp, verify_meridian_bound
from .packing import build_nerve, normalize_at_vertex, solve_packing

log = logging.getLogger("augcusp")

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4


def _emit(doc, args) -> None:
    text = json.dumps(doc, sort_keys=True)
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read_diagram(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise PDSyntaxError(f"cannot read {path}: {exc}") from exc
    return parse_diagram(text)


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
        ann = json.loads(Path(args.annotations).read_text())
        regions = [
            validate_generalized_region(d, a["crossings"], a.get("strands"))
            for a in ann
        ]
    al, ledger = augment(d, regions)
    if args.roundtrip:
        rt = untwist_retwist_roundtrip(d, regions)
        if not pd_isomorphic(rt, d):
            _say("roundtrip FAILED: refilled diagram is not isomorphic")
            return EXIT_VALIDATION
        _say("roundtrip ok: refilled diagram isomorphic to input")
    doc = {
        "link": json.loads(al.to_json()),
        "ledger": json.loads(ledger.to_json()),
    }
    _emit(doc, args)
    _say(
        f"{len(al.circles)} crossing circle(s); ledger: "
        + (ledger.to_json() if len(ledger) else "(no nontrivial fillings)")
    )
    return 0


def _render_to(path: str, content: str) -> None:
    Path(path).write_text(content)
    _say(f"wrote {path}")


def _family_ints(family: list[str]) -> list[int]:
    try:
        return [int(x) for x in family[1:]]
    except ValueError:
        raise DiagramInvariantError(
            f"--family {family[0]} takes integers, got {' '.join(family[1:])!r}"
        ) from None


def cmd_cusp(args) -> int:
    tol = args.tol
    if args.family:
        kind = args.family[0]
        if kind == "twobridge":
            if len(args.family) < 2:
                raise DiagramInvariantError("need: --family twobridge n r1 [r2 ...]")
            n, *r = _family_ints(args.family)
            if n < 1:
                raise DiagramInvariantError(f"--family twobridge needs n >= 1, got {n}")
            if len(r) != n:
                raise DiagramInvariantError(f"need {n} filling integers, got {len(r)}")
            fam = families.gen_twobridge_family(n, r)
            mid = families.twobridge_middle_circle(fam)
            nerve = build_nerve(fam.parent)
            packing = solve_packing(nerve, tol=tol, max_iter=args.max_iter)
            rep = analyze_cusp(fam.parent, mid, tol=tol, packing=packing, nerve=nerve)
            counts = families.twobridge_filled_strand_counts(n, r) if any(r) else None
            doc = {
                "family": "twobridge",
                "n": n,
                "r": r,
                "cusp_report": rep.to_dict(),
                "filled_ledger": json.loads(fam.ledger.to_json()),
                "filled_strand_counts": counts,
            }
            _emit(doc, args)
            s = rep.shape
            _say(
                f"two-bridge parent n={n}: cusp {mid}: meridian "
                f"{s.meridian_length:.6f}, longitude {s.longitude_length:.6f}, "
                f"height {s.height:.6f}"
            )
            if args.render:
                eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == mid)
                norm = normalize_at_vertex(packing, eid)
                _render_to(args.render, render.packing_svg(norm))
            return 0
        if kind == "longitude":
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
        raise DiagramInvariantError(f"unknown family {kind!r}")

    if not args.input:
        raise PDSyntaxError("need an input diagram or --family")
    d = _read_diagram(args.input)
    al, _ = augment(d)
    nerve = build_nerve(al)
    packing = solve_packing(nerve, tol=tol, max_iter=args.max_iter)
    reports = {}
    for cusp in nerve.cusps():
        rep = analyze_cusp(al, cusp, tol=tol, packing=packing, nerve=nerve)
        reports[cusp] = rep.to_dict()
    doc = {"cusps": reports}
    _emit(doc, args)
    for cusp, repd in sorted(reports.items()):
        _say(
            f"cusp {cusp} ({repd['kind']}): meridian {repd['meridian_length']:.6f}, "
            f"longitude {repd['longitude_length']:.6f}"
        )
    if args.render:
        from .geometry import assemble, maximal_cusp

        knot = [c for c, r in reports.items() if r["kind"] == "knotting"]
        target = knot[0] if knot else nerve.cusps()[0]
        eid = min(k for k, e in enumerate(nerve.edges) if e.cusp == target)
        norm = normalize_at_vertex(packing, eid)
        _render_to(args.render, render.packing_svg(norm))
        hd = assemble(norm, al)
        maximal_cusp(hd, target)
        horo_path = str(Path(args.render).with_suffix(".horoballs.svg"))
        _render_to(horo_path, render.horoball_svg(hd, target))
    return 0


def cmd_verify(args) -> int:
    corpus: list = []
    if args.generate:
        corpus = families.fal_corpus(args.generate)
    elif args.corpus:
        root = Path(args.corpus)
        if not root.is_dir():
            raise PDSyntaxError(f"{args.corpus} is not a directory")
        for path in sorted(root.glob("*.json")):
            d = parse_diagram(path.read_text())
            al, _ = augment(d)
            corpus.append((path.stem, al))
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="augcusp",
        description=(
            "augmented link diagrams, circle packings and cusp geometry"
        ),
    )
    ap.add_argument("--tol", type=_tolerance, default=1e-12, help="solver tolerance (finite, > 0)")
    ap.add_argument(
        "--max-iter", type=int, default=100_000, help="cap on the Newton steps of the packing radii"
    )
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
        type=int,
        metavar="MAX_CIRCLES",
        help="use the generated corpus up to this many crossing circles",
    )
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("AUGCUSP_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, 30))
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except PDSyntaxError as exc:
        _say(f"parse error: {exc}")
        return EXIT_PARSE
    except (DiagramInvariantError, UnsupportedLinkError, KeyError) as exc:
        _say(f"validation error: {exc}")
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        _say(f"solver did not converge: {exc} (worst residual {exc.worst_residual:.3e})")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
