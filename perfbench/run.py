#!/usr/bin/env python3
"""Stage-level benchmark of the Espresso-HF reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload figure8-minimize --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
untraced and then traced, writes a Chrome trace under ``perfbench/out/``
and prints the per-layer metrics.  Human-readable notes go to stdout as
``#`` lines; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from corpus_diff import CorpusDifferential
    from figure8 import Figure8Detect, Figure8Minimize
    from harness import measure, result
    from serve_mix import ServeMix

    workloads = {
        w.name: w
        for w in (Figure8Minimize(), Figure8Detect(), CorpusDifferential(), ServeMix())
    }
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({package})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    measured = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result(measured, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
