#!/usr/bin/env python3
"""Start-up cost of each README command, one fresh process per run.

    python3 scripts/cli_startup.py [--runs 9] [--src src [--src other/src ...]]

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
command.  ``--src`` picks the source tree to run.  Given more than once,
it compares the trees on the same commands without the host's drift
between separate runs: each run of a command times every tree, in an
order that rotates from run to run, the compile timings of the trees
are interleaved, and each command prints one pair of lines per tree,
marked with the tree's number in a legend printed first.
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
import timeit
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
    ap.add_argument("--src", action="append", help="a source tree; repeat to compare trees")
    args = ap.parse_args()
    trees = [Path(src).resolve() for src in args.src or [ROOT / "src"]]
    envs = [dict(os.environ, PYTHONPATH=str(tree)) for tree in trees]

    def run(k, *argv):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=envs[k], capture_output=True, text=True)
        return time.perf_counter() - t0, proc.stdout

    best = {}  # (tree index, module) -> best compile time in s

    def compile_all(pairs):
        # 30 rounds, each compiling every (tree, module) not yet timed once,
        # so that the trees see the same host speed
        texts = {}
        for k, module in pairs:
            path = trees[k] / "coxembed" / ("__init__.py" if module == "coxembed" else f"{module}.py")
            texts[k, module] = (path.read_text(encoding="utf-8"), str(path))
        for _ in range(30):
            for key, (text, path) in texts.items():
                t = timeit.timeit(lambda: compile(text, path, "exec"), number=1)
                best[key] = min(best.get(key, t), t)

    bare_modules = set(run(0, "-c", BARE)[1].split())
    if len(trees) > 1:
        for k, tree in enumerate(trees, 1):
            print(f"({k}) {tree}")
    print(f"{'ms':>6} {'excess':>6} {'compile':>7}  command  [modules]")
    print(f"{'':>23}+ other modules beyond a bare interpreter")
    for argv in readme_commands():
        bare = []
        cmd = [[] for _ in trees]
        for r in range(args.runs):
            bare.append(run(0, "-c", "pass")[0])
            for i in range(len(trees)):
                k = (r + i) % len(trees)
                cmd[k].append(run(k, "-m", "coxembed", *argv)[0])
        loaded = [set(run(k, "-c", PROBE, *argv)[1].split()) - bare_modules for k in range(len(trees))]
        ours = [sorted(m[9:] or m for m in mods if m.split(".")[0] == "coxembed") for mods in loaded]
        compile_all([(k, m) for k in range(len(trees)) for m in ours[k] if (k, m) not in best])
        for k in range(len(trees)):
            excess = statistics.median(c - b for b, c in zip(bare, cmd[k]))
            compiled = sum(best[k, m] for m in ours[k])
            mark = f"({k + 1}) " if len(trees) > 1 else ""
            other = sorted(m for m in loaded[k] if m.split(".")[0] != "coxembed")
            print(f"{1e3 * statistics.median(cmd[k]):6.1f} {1e3 * excess:6.1f} {1e3 * compiled:7.1f}"
                  f"  {mark}{shlex.join(argv)}  [{' '.join(ours[k])}]")
            print(f"{'':>23}+ {' '.join(other)}")


if __name__ == "__main__":
    main()
