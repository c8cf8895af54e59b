"""Benchmark entry point.

    python3 perfbench/run.py --workload bracket --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints a human-readable report and, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Exits 0 when the outputs
pass the correctness checks, 1 when they do not, and 2 without a
result when the program or the test oracle cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bracket", "attach", "relsim")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "npstruct" / "__init__.py", ROOT / "tests" / "conftest.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    result, lines = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
