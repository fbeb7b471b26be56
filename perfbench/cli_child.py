"""Traced `augcusp` command, for the traced run of the cli-cold workload.

    python3 perfbench/cli_child.py OUT.json cusp --family twobridge 1 1

Behaves as `python3 -m augcusp.cli cusp --family twobridge 1 1` and writes
the import time, the command's time and the per-function spans to OUT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    from augcusp import cli

    import_s = perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    finally:
        main_s = perf_counter() - t0
        tracer.uninstall()
        doc = tracer.snapshot()
        doc.update(import_s=import_s, main_s=main_s, command=argv[0])
        Path(out).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
