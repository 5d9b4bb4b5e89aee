#!/usr/bin/env python3
"""Print the verify-report digest of every family instance up to a rank.

    python3 scripts/instance_digests.py --max-rank 3 > digests.txt
    python3 scripts/instance_digests.py --max-rank 3 --simplify > simplify.txt
    python3 scripts/instance_digests.py --max-rank 3 --evaluated > evaluated.txt
    python3 scripts/instance_digests.py --max-rank 3 --chamber > chamber.txt

Sweeps ranks 1..R: every Coxeter matrix with labels 2-6 and ``inf``,
with generator orders from {2, 4, 6, inf} for thm1 (even labels only)
and prop2; artin and artin-inversion from rank 2; and klein.  Prints one
line per instance: its family, its params as JSON and the sha256 of its
:func:`verify_instance` report (``to_dict`` as sorted JSON).  Two
checkouts verify every instance alike exactly when a ``diff`` of their
outputs is empty.  Rank 3 is about 18,500 instances and a few minutes.

With ``--simplify`` each line instead carries two digests, of the
:func:`simplify` result on the instance's raw kernel and on its expected
kernel: the sha256 of ``repr((str(out), trace.steps, trace.defining,
trace.bounded))`` at ``--max-relator-length``.  A ``diff`` then compares
whole Tietze traces, not only the verdicts they lead to.

With ``--evaluated`` each line carries the sha256 of the instance's
evaluated kernel: ``repr((str(presentation), names, defining words))``
over its symbol table.  The kernel is built twice, from the raw kernel
and without it; if the two differ the script names the instance on
stderr and exits 1.  It uses only :func:`raw_kernel_presentation` and
:func:`evaluated_kernel_presentation`, so it runs against older checkouts
too.

With ``--chamber`` only the instances with a Coxeter ambient
(:func:`coxeter_matrix_of`) are printed, each with the sha256 of the
:func:`coxeter_word_trivial` verdicts, one ``0`` or ``1`` per word, on
its expanded expected relators and on two perturbations of each: the
last letter dropped, and letter 1 appended.  Only the one-word
:func:`coxeter_word_trivial` is called, so it runs against older
checkouts too.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path
from typing import Optional

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
from coxembed.schreier import evaluated_kernel_presentation, raw_kernel_presentation  # noqa: E402
from coxembed.tietze import DEFAULT_MAX_RELATOR_LENGTH, simplify  # noqa: E402
from coxembed.verify import (  # noqa: E402
    DEFAULT_MAX_COSETS,
    coxeter_matrix_of,
    coxeter_word_trivial,
    verify_instance,
)
from coxembed.words import expand_kernel_word  # noqa: E402

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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def simplify_digests(inst, max_relator_length: int) -> str:
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).presentation
    digests = []
    for pres in (raw, inst.expected_kernel):
        out, trace = simplify(pres, max_relator_length)
        digests.append(sha256(repr((str(out), trace.steps, trace.defining, trace.bounded))))
    return " ".join(digests)


def evaluated_digest(inst) -> Optional[str]:
    """The digest of the evaluated kernel, or None when building it from
    the raw kernel and without it give different kernels."""
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    texts = [
        repr((str(ev.presentation), [g.name for g in ev.table], [g.defining for g in ev.table]))
        for ev in (evaluated_kernel_presentation(inst, raw), evaluated_kernel_presentation(inst))
    ]
    return sha256(texts[0]) if texts[0] == texts[1] else None


def chamber_digest(inst, matrix) -> str:
    verdicts = []
    for r in inst.expected_kernel.relators:
        w = expand_kernel_word(r, inst.expected_words)
        for word in (w, w[:-1], w + (1,)):
            verdicts.append("1" if coxeter_word_trivial(matrix, word) else "0")
    return sha256("".join(verdicts))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-rank", type=int, default=3)
    ap.add_argument("--max-cosets", type=int, default=DEFAULT_MAX_COSETS)
    ap.add_argument("--max-relator-length", type=int, default=DEFAULT_MAX_RELATOR_LENGTH)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--simplify", action="store_true", help="digest the simplify traces, not the report")
    mode.add_argument("--evaluated", action="store_true", help="digest the evaluated kernel, not the report")
    mode.add_argument("--chamber", action="store_true", help="digest the chamber check verdicts, not the report")
    args = ap.parse_args(argv)
    for inst in instances(args.max_rank):
        if args.simplify:
            digest = simplify_digests(inst, args.max_relator_length)
        elif args.evaluated:
            digest = evaluated_digest(inst)
            if digest is None:
                print(f"{inst.family} {json.dumps(inst.params, sort_keys=True)}: the evaluated kernel "
                      "differs with and without the raw kernel", file=sys.stderr)
                return 1
        elif args.chamber:
            matrix = coxeter_matrix_of(inst.ambient)
            if matrix is None:
                continue
            digest = chamber_digest(inst, matrix)
        else:
            report = verify_instance(inst, args.max_cosets, args.max_relator_length)
            digest = sha256(json.dumps(report.to_dict(), sort_keys=True))
        print(inst.family, json.dumps(inst.params, sort_keys=True), digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
