#!/usr/bin/env python3
"""Count the Tietze eliminations of one benchmark pass by solved-relator length.

    python3 scripts/tietze_traffic.py --workload kernels --seed 1

Prepares the seed's ops with ``perfbench/run.py``'s ``setup`` (CLI ops run
in process), as ``scripts/op_digests.py`` does, with ``simplify`` wrapped
wherever the package bound it.  Runs each op once and prints the number
of ``simplify`` calls, their eliminations by the number of letters of the
relator each solved (1, 2, 3 or more), the relators they dropped as
empty and as duplicates of a live relator (the sums of the
``drop-empty`` and ``dedupe`` steps), the calls that ended ``bounded``
and the relator rewrites made.  It also prints the words ``simplify``
hands to ``rotation_nf`` and to ``code_nf``, and how many of each are
proper powers ``u^k``, ``k >= 2``, of three or more letters, read off
the normal form, which is a proper power exactly when the cyclically
reduced word is.  Loading puts each input relator in normal form once,
and each rewrite puts its result in normal form once, so the rewrites
are those words less the input relators.  The warm-up op of ``setup`` is
not counted.  Only ``trace.steps``, ``trace.bounded`` and the
``rotation_nf`` and ``code_nf`` that ``coxembed.tietze`` binds are read,
so it runs against older checkouts too.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from simplify_chain import letters  # noqa: E402


class Traffic:
    """Counts over the ``simplify`` calls made after ``install``."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls = self.bounded = self.loaded = 0
        self.solved: Counter = Counter()  # eliminations by min(letters, 3)
        self.dropped: Counter = Counter()  # relators by drop-empty, dedupe
        self.nf: Counter = Counter()  # words by normal form function
        self.powers: Counter = Counter()  # proper powers among them

    def install(self, modules: dict) -> None:
        tietze = modules["coxembed.tietze"]
        simplify = tietze.simplify

        def counted_nf(name):
            nf = getattr(tietze, name)

            def counted(c):
                out = nf(c)
                self.nf[name] += 1
                # a word recurs inside its square before its length exactly
                # when it is a proper power
                self.powers[name] += len(out) > 2 and (out + out).find(out, 1) < len(out)
                return out

            setattr(tietze, name, counted)

        counted_nf("rotation_nf")
        counted_nf("code_nf")

        def counted(pres, *args, **kwargs):
            out, trace = simplify(pres, *args, **kwargs)
            self.calls += 1
            self.loaded += len(pres.relators)
            self.bounded += trace.bounded
            for step in trace.steps:
                if step[0] == "eliminate":
                    self.solved[min(letters(step[2]), 3)] += 1
                elif step[0] in ("drop-empty", "dedupe"):
                    self.dropped[step[0]] += step[1]
            return out, trace

        for mod in modules.values():
            if mod.__dict__.get("simplify") is simplify:
                mod.simplify = counted


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    os.chdir(ROOT)  # CLI ops name fixtures relative to the root
    traffic = Traffic()
    ops = workloads.draw(args.workload, args.seed)
    items = run.setup(args.workload, ops, in_process=True, tracer=traffic)
    traffic.reset()  # forget the warm-up op
    for item in items:
        item.check(item.run())
    solved = traffic.solved
    print(f"ops: {len(items)}")
    print(f"simplify_calls: {traffic.calls}")
    print(f"eliminations: {sum(solved.values())}", end=" ")
    print(f"(1 letter: {solved[1]}, 2 letters: {solved[2]}, 3+ letters: {solved[3]})")
    dropped = traffic.dropped
    print(f"dropped: {sum(dropped.values())} (empty: {dropped['drop-empty']}, duplicate: {dropped['dedupe']})")
    print(f"bounded_calls: {traffic.bounded}")
    print(f"rewrites: {sum(traffic.nf.values()) - traffic.loaded}")
    for name in ("rotation_nf", "code_nf"):
        print(f"{name}_inputs: {traffic.nf[name]} (proper powers: {traffic.powers[name]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
