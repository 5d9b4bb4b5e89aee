#!/usr/bin/env python3
"""Print the check digest of every benchmark op of one workload and seed.

    python3 scripts/op_digests.py --workload kernels --seed 1 > digests.txt

Prepares the seed's ops with ``perfbench/run.py``'s ``setup`` (CLI ops run
in process), runs each op once and prints one line per op: its index and
the digest its ``check`` returns, or ``FAILED`` and the error.  Two
checkouts give the same output exactly when every op gives the same
output, so one ``diff`` of two runs compares them.  Exits 1 if an op
failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # CLI ops name fixtures relative to the root
    items = run.setup(args.workload, workloads.draw(args.workload, args.seed), in_process=True)
    failed = 0
    for item in items:
        try:
            line = item.check(item.run())
        except Exception as exc:  # report and go on, as a benchmark run does
            line = f"FAILED {type(exc).__name__}: {exc}"
            failed += 1
        print(item.op.index, line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
