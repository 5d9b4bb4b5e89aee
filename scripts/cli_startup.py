#!/usr/bin/env python3
"""Start-up cost of each README command, one fresh process per run.

    python3 scripts/cli_startup.py [--runs 9] [--src src]

For every ``coxembed ...`` line of the README's command-line block, runs
``python -m coxembed ...`` ``--runs`` times, each run next to a bare
``python -c pass`` so both see the same host speed, and prints the median
wall time, the median excess over the bare interpreter, the time to
compile the sources of the coxembed modules the command loaded (per
module the best of 30 ``compile()`` calls on its text, summed: what each
process pays when no bytecode cache is written, as under
``PYTHONDONTWRITEBYTECODE=1``) and those modules.  A second line lists
the other modules it loaded beyond those a bare interpreter has, so that
a costly standard library import (such as ``dataclasses``) shows up per
command.  ``--src`` picks the source tree to run (another checkout's
``src`` compares two versions on the same commands).
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
import timeit
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# runs the command in-process, then prints every module loaded
PROBE = ("import contextlib, io, sys\nfrom coxembed.cli import main\n"
         "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
         "    main(sys.argv[1:])\n"
         "print(' '.join(sys.modules))")
BARE = "import sys; print(' '.join(sys.modules))"


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

    @cache
    def compile_s(module):
        path = Path(args.src) / "coxembed" / ("__init__.py" if module == "coxembed" else f"{module}.py")
        text = path.read_text(encoding="utf-8")
        return min(timeit.repeat(lambda: compile(text, str(path), "exec"), number=1, repeat=30))

    bare_modules = set(run("-c", BARE)[1].split())
    print(f"{'ms':>6} {'excess':>6} {'compile':>7}  command  [modules]")
    print(f"{'':>23}+ other modules beyond a bare interpreter")
    for argv in readme_commands():
        bare, cmd = [], []
        for _ in range(args.runs):
            bare.append(run("-c", "pass")[0])
            cmd.append(run("-m", "coxembed", *argv)[0])
        excess = statistics.median(c - b for b, c in zip(bare, cmd))
        loaded = set(run("-c", PROBE, *argv)[1].split()) - bare_modules
        ours = sorted(m[9:] or m for m in loaded if m.split(".")[0] == "coxembed")
        other = sorted(m for m in loaded if m.split(".")[0] != "coxembed")
        compiled = sum(map(compile_s, ours))
        print(f"{1e3 * statistics.median(cmd):6.1f} {1e3 * excess:6.1f} {1e3 * compiled:7.1f}"
              f"  {shlex.join(argv)}  [{' '.join(ours)}]")
        print(f"{'':>23}+ {' '.join(other)}")


if __name__ == "__main__":
    main()
