#!/usr/bin/env python3
"""Print the verify-report digest of every family instance up to a rank.

    python3 scripts/instance_digests.py --max-rank 3 > digests.txt

Sweeps ranks 1..R: every Coxeter matrix with labels 2-6 and ``inf``,
with generator orders from {2, 4, 6, inf} for thm1 (even labels only)
and prop2; artin and artin-inversion from rank 2; and klein.  Prints one
line per instance: its family, its params as JSON and the sha256 of its
:func:`verify_instance` report (``to_dict`` as sorted JSON).  Two
checkouts verify every instance alike exactly when a ``diff`` of their
outputs is empty.  Rank 3 is about 18,500 instances and a few minutes.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coxembed.presentations import (  # noqa: E402
    INF,
    CoxeterMatrix,
    build_artin_instance,
    build_artin_inversion_instance,
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
)
from coxembed.verify import DEFAULT_MAX_COSETS, Budgets, verify_instance  # noqa: E402

LABELS = (2, 3, 4, 5, 6, INF)
ORDERS = (2, 4, 6, INF)


def matrices(n, labels):
    pairs = list(itertools.combinations(range(n), 2))
    for ms in itertools.product(labels, repeat=len(pairs)):
        yield CoxeterMatrix.from_pairs(n, dict(zip(pairs, ms)))


def instances(max_rank):
    for n in range(1, max_rank + 1):
        orders = list(itertools.product(ORDERS, repeat=n))
        for matrix in matrices(n, [m for m in LABELS if m == INF or m % 2 == 0]):
            for p in orders:
                yield build_thm1_instance(matrix, p)
        for matrix in matrices(n, LABELS):
            for p in orders:
                yield build_prop2_instance(matrix, p)
        if n >= 2:
            for matrix in matrices(n, LABELS):
                yield build_artin_instance(matrix)
                yield build_artin_inversion_instance(matrix)
    yield build_klein_instance()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-rank", type=int, default=3)
    ap.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    ap.add_argument("--max-relator-length", type=int, default=Budgets().max_relator_length)
    args = ap.parse_args(argv)
    budgets = Budgets(args.max_cosets, args.max_relator_length)
    for inst in instances(args.max_rank):
        report = json.dumps(verify_instance(inst, budgets).to_dict(), sort_keys=True)
        digest = hashlib.sha256(report.encode()).hexdigest()
        print(inst.family, json.dumps(inst.params, sort_keys=True), digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
