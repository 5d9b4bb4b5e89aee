#!/usr/bin/env python3
"""Print the check digest of every benchmark op of some workloads and seeds.

    python3 scripts/op_digests.py --workload kernels --seed 1 > digests.txt
    python3 scripts/op_digests.py --workload kernels --workload cli --seed 1 --seed 97 > all.txt

Prepares each seed's ops with ``perfbench/run.py``'s ``setup`` (CLI ops
run in process), runs each op once and prints one line per op: its index
and the digest its ``check`` returns, or ``FAILED`` and the error.
``--workload`` and ``--seed`` may each be given more than once (the seed
defaults to 1); every workload then runs at every seed, and with more
than one of either each line starts with its workload and seed.  Two
checkouts give the same output exactly when every op gives the same
output, so one ``cmp`` of two runs compares them.  Exits 1 if an op
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


def run_ops(names, seeds):
    """Prepare each workload's ops at each seed and run each op once;
    yield its workload, seed, index and the digest its ``check`` returns,
    or ``FAILED`` and the error."""
    os.chdir(ROOT)  # CLI ops name fixtures relative to the root
    for workload in names:
        for seed in seeds:
            for item in run.setup(workload, workloads.draw(workload, seed), in_process=True):
                try:
                    line = item.check(item.run())
                except Exception as exc:  # report and go on, as a benchmark run does
                    line = f"FAILED {type(exc).__name__}: {exc}"
                yield workload, seed, item.op.index, line


def parse_args(description: str, argv=None):
    """The repeatable ``--workload`` and ``--seed`` options; the seed
    defaults to 1."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--workload", required=True, action="append", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, action="append")
    args = ap.parse_args(argv)
    args.seed = args.seed or [1]
    return args


def main(argv=None) -> int:
    args = parse_args(__doc__.splitlines()[0], argv)
    labelled = len(args.workload) * len(args.seed) > 1
    failed = 0
    for workload, seed, index, line in run_ops(args.workload, args.seed):
        failed += line.startswith("FAILED")
        print(f"{workload} {seed} {index}" if labelled else index, line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
