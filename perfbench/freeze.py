"""Write perfbench/inputs.json: the frozen PD inputs of every workload.

    PYTHONPATH=src python3 perfbench/freeze.py          # rewrite inputs.json
    PYTHONPATH=src python3 perfbench/freeze.py --check  # compare, write nothing

The benchmark measures these frozen diagrams, never the catalog's current
output, so a fix to `catalog` (for instance the nugatory crossing that
even-length `rational_link` vectors build) cannot silently change what is
measured.  `--check` reports whether the catalog still builds the same
diagrams; rewrite the file only as a deliberate change of the benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import frozen

CHAIN_LADDER = (5, 9, 13, 21, 31, 41, 61, 81, 121)
PRETZEL_LADDER = (10, 20, 30, 40, 60)
# Roundtrip pool: shuffled orders of larger diagrams make the pd_isomorphic
# backtracker take seconds (18 crossings) to minutes (40), so the pool stops
# at 10 crossings, where one pass still finishes and the tail stays visible.
POOL_MAX_CROSSINGS = 10
RATIONAL_ENTRIES = (1, 2, 3)
RATIONAL_LENGTHS = (1, 2, 3, 4)
PRETZEL_ENTRIES = (-3, -2, 2, 3)
PRETZEL_COLUMNS = (3, 4)


def _entry(d, name: str) -> dict:
    from augcusp import augment, build_nerve

    al, _ = augment(d)
    return {"name": name, "pd": d.to_json(), "cusps": len(build_nerve(al).cusps())}


def build() -> dict:
    from augcusp import catalog

    pool = []
    for n in RATIONAL_LENGTHS:
        for v in itertools.product(RATIONAL_ENTRIES, repeat=n):
            if 3 <= sum(v) <= POOL_MAX_CROSSINGS:
                d = catalog.rational_link(list(v))
                pool.append({"name": f"rational{list(v)}", "pd": d.to_json()})
    for n in PRETZEL_COLUMNS:
        for v in itertools.product(PRETZEL_ENTRIES, repeat=n):
            if sum(map(abs, v)) <= POOL_MAX_CROSSINGS:
                d = catalog.pretzel_link(list(v))
                pool.append({"name": f"pretzel{list(v)}", "pd": d.to_json()})
    return {
        "chain-ladder": [
            _entry(catalog.two_bridge_chain(k), f"chain-{k}") for k in CHAIN_LADDER
        ],
        "pretzel-ladder": [
            _entry(catalog.pretzel_link([3] * c), f"pretzel-3x{c}")
            for c in PRETZEL_LADDER
        ],
        "pd-roundtrip": pool,
        "cli-cold": {
            "pretzel-5432": catalog.pretzel_link([5, 4, 3, 2]).to_json(),
            "chain-9": catalog.two_bridge_chain(9).to_json(),
            "chain-13": catalog.two_bridge_chain(13).to_json(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare only")
    args = ap.parse_args(argv)
    data = build()
    if args.check:
        same = frozen.digest(data) == frozen.load_file(frozen.INPUTS)["digest"]
        print("catalog matches inputs.json" if same else "catalog differs from inputs.json")
        return 0 if same else 1
    frozen.INPUTS.write_text(
        json.dumps({"digest": frozen.digest(data), "inputs": data}, indent=1) + "\n"
    )
    print(f"wrote {frozen.INPUTS} ({len(data['pd-roundtrip'])} roundtrip diagrams)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
