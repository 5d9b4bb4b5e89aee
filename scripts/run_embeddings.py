#!/usr/bin/env python3
"""Run the built-in embedding constructions end to end and print reports.

Builds each family, computes evaluated and simplified raw kernels, and
prints the verification verdicts.  Everything is deterministic; run from
the repository root with `python scripts/run_embeddings.py`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coxembed.presentations import (
    INF,
    CoxeterMatrix,
    build_artin_instance,
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
    serialize_presentation,
    serialize_word,
)
from coxembed.schreier import evaluated_kernel_presentation
from coxembed.verify import certified_infinite, verify_instance


def show(title, inst):
    print("=" * 72)
    print(title)
    print("ambient :", serialize_presentation(inst.ambient))
    kp = evaluated_kernel_presentation(inst)
    print("kernel  :", serialize_presentation(kp.presentation))
    for gen in kp.table:
        print(f"   {gen.name} = {serialize_word(gen.defining, inst.ambient.gens)}")
    print("expected:", serialize_presentation(inst.expected_kernel))
    report = verify_instance(inst)
    d = report.to_dict()
    finite = d["finite"]
    if finite == "skipped":
        if certified_infinite(inst.ambient):
            reason = "ambient certified infinite"
        elif certified_infinite(inst.expected_kernel):
            reason = "expected kernel certified infinite"
        else:
            reason = "coset budget exceeded"
        print(f"orders  : skipped ({reason})")
    else:
        print(
            f"orders  : ambient {finite['ambient_order']}, kernel {finite['kernel_order']},"
            f" index {finite['index']}"
        )
    print("verdict :", d["verdict"])


def main():
    m4 = CoxeterMatrix.from_pairs(2, {(0, 1): 4})
    show("power-commutator kernel: even labels (4), orders (2, 2)",
         build_thm1_instance(m4, (2, 2)))

    raag = CoxeterMatrix.from_pairs(3, {(0, 1): 2, (0, 2): INF, (1, 2): 2})
    show("right-angled case: labels in {2, inf}, infinite orders",
         build_thm1_instance(raag, (INF, INF, INF)))

    m3 = CoxeterMatrix.from_pairs(2, {(0, 1): 3})
    # the chain with labels 4, 3, 4 (affine); its kernel is the 4-cycle
    # Coxeter group with labels 3 and commuting diagonals
    show("Coxeter kernel: label 3, orders (4, 4)",
         build_prop2_instance(m3, (4, 4)))
    show("Coxeter kernel, finite variant: label 3, orders (2, 2)",
         build_prop2_instance(m3, (2, 2)))

    show("Klein bottle group inside a product of infinite dihedral groups",
         build_klein_instance())

    for label in (2, 3, 4):
        # labels >= 3 genuinely yield a second, sign-flipped braid relator
        # class, so their verdict is fail: the kernel is a proper quotient
        # of the Artin group
        show(f"braid-type kernel: label {label}",
             build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): label})))


if __name__ == "__main__":
    main()
