#!/usr/bin/env python3
"""Start-up cost of each README command, one fresh process per run.

    python3 scripts/cli_startup.py [--runs 9] [--src src]

For every ``coxembed ...`` line of the README's command-line block, runs
``python -m coxembed ...`` ``--runs`` times, each run next to a bare
``python -c pass`` so both see the same host speed, and prints the median
wall time, the median excess over the bare interpreter and the coxembed
modules the command loaded.  ``--src`` picks the source tree to run
(another checkout's ``src`` compares two versions on the same commands).
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# runs the command in-process, then prints the coxembed modules it loaded
PROBE = ("import contextlib, io, sys\nfrom coxembed.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
         "    main(sys.argv[1:])\n"
         "print(' '.join(sorted(m[9:] or m for m in sys.modules if m.split('.')[0] == 'coxembed')))")


def readme_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("coxembed ")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=9)
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()))

    def run(*argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True)
        return time.perf_counter() - t0, proc.stdout

    print(f"{'ms':>6} {'excess':>6}  command  [modules]")
    for argv in readme_commands():
        bare, cmd = [], []
        for _ in range(args.runs):
            bare.append(run("-c", "pass")[0])
            cmd.append(run("-m", "coxembed", *argv)[0])
        excess = statistics.median(c - b for b, c in zip(bare, cmd))
        modules = run("-c", PROBE, *argv)[1].strip()
        print(f"{1e3 * statistics.median(cmd):6.1f} {1e3 * excess:6.1f}  {shlex.join(argv)}  [{modules}]")


if __name__ == "__main__":
    main()
