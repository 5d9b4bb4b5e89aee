#!/usr/bin/env python3
"""Time raw Tietze ``simplify`` and ``verify_instance`` along rank chains.

    python3 scripts/simplify_chain.py 5 6 7
    python3 scripts/simplify_chain.py 4 5 --chains long --repeat 1
    python3 scripts/simplify_chain.py 3 --chains thm1,prop2 --label 40000 --repeat 3

For each chain and each rank given, builds the instance on the path
Coxeter graph of that rank and prints one line: the raw kernel's
generators and relators, the eliminations ``simplify`` makes and how many
of them solve a relator of three or more letters, the best of
``--repeat`` raw ``simplify`` times, the best time of rendering its trace
(``trace.to_dict()``, which serializes the steps and defining words that
``simplify`` leaves unrendered) and the best ``verify_instance`` time.
``simplify_s`` plus ``render_s`` compares with the ``simplify`` times of
checkouts that rendered the trace during the call.

Chains:

- ``thm1``: labels 4 on the path, generator orders ``inf``.
- ``prop2``: labels 3 on the path, generator orders 4.
- ``long``: the thm1 raw kernel without its relators whose normal form
  has one or two letters, so that every elimination solves a longer
  relator and recounts the generators of the live relators first; it has
  no ``verify_instance`` time.  ``tests/test_tietze.py`` pins its rank-4
  input.

``--label L`` puts the label ``L`` on every edge of the path instead, in
every chain; thm1, and so ``long``, need it even.  A large label times
the cost of long relators such as ``(s_i s_j)^L``.

Uses the standard library and the ``coxembed`` sources of this checkout.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coxembed.presentations import (  # noqa: E402
    INF,
    CoxeterMatrix,
    Presentation,
    build_prop2_instance,
    build_thm1_instance,
)
from coxembed.schreier import raw_kernel_presentation  # noqa: E402
from coxembed.tietze import simplify  # noqa: E402
from coxembed.verify import verify_instance  # noqa: E402
from coxembed.words import relator_nf  # noqa: E402

CHAINS = ("thm1", "prop2", "long")
ROW = "{:<6} {:>4} {:>6} {:>6} {:>6} {:>5} {:>11} {:>9} {:>9}"


def path(n: int, label) -> CoxeterMatrix:
    return CoxeterMatrix.from_pairs(n, {(i, i + 1): label for i in range(n - 1)})


def instance(chain: str, n: int, label=None):
    if chain == "prop2":
        return build_prop2_instance(path(n, label or 3), (4,) * n)
    return build_thm1_instance(path(n, label or 4), (INF,) * n)


def letters(word_text: str) -> int:
    """Number of letters of a serialized word such as ``a b^-2``."""
    return sum(abs(int(tok.partition("^")[2] or 1)) for tok in word_text.split())


def best_of(k: int, fn):
    best, result = None, None
    for _ in range(k):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def simplify_and_render(raw):
    """Seconds taken by ``simplify(raw)`` and by rendering its trace, and
    the trace."""
    t0 = time.perf_counter()
    _, trace = simplify(raw)
    t1 = time.perf_counter()
    trace.to_dict()
    return t1 - t0, time.perf_counter() - t1, trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ranks", type=int, nargs="+")
    ap.add_argument("--chains", default=",".join(CHAINS), help="comma-separated, from: " + ", ".join(CHAINS))
    ap.add_argument("--repeat", type=int, default=3, help="runs per timing; the best is printed")
    ap.add_argument("--label", type=int, help="the label on every edge of the path (default: 4 for thm1, 3 for prop2)")
    args = ap.parse_args(argv)
    chains = args.chains.split(",")
    if any(c not in CHAINS for c in chains) or args.repeat < 1 or min(args.ranks) < 1:
        ap.error("unknown chain, or rank or --repeat below 1")
    if args.label is not None and (args.label < 2 or args.label % 2 and chains != ["prop2"]):
        ap.error("--label must be at least 2, and even unless the only chain is prop2")
    print(ROW.format("chain", "rank", "gens", "rels", "elims", "long", "simplify_s", "render_s", "verify_s"))
    for chain in chains:
        for n in args.ranks:
            inst = instance(chain, n, args.label)
            raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).presentation
            if chain == "long":
                raw = Presentation(raw.gens, tuple(r for r in raw.relators if len(relator_nf(r)) > 2))
            runs = [simplify_and_render(raw) for _ in range(args.repeat)]
            simplify_s, render_s = min(r[0] for r in runs), min(r[1] for r in runs)
            trace = runs[-1][2]
            elims = [s for s in trace.steps if s[0] == "eliminate"]
            long_elims = sum(1 for s in elims if letters(s[2]) > 2)
            verify_s = "-"
            if chain != "long":
                verify_s = f"{best_of(args.repeat, lambda: verify_instance(inst))[0]:.3f}"
            counts = (raw.rank, len(raw.relators), len(elims), long_elims)
            print(ROW.format(chain, n, *counts, f"{simplify_s:.3f}", f"{render_s:.3f}", verify_s))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
