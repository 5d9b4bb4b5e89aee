"""Reidemeister-Schreier computations for Coxeter-style group presentations.

Builds presentations of Coxeter, power-commutator and Artin-type groups,
computes kernel presentations of homomorphisms onto elementary abelian
2-groups, simplifies them with Tietze transformations, and verifies the
results with Todd-Coxeter coset enumeration and abelianization
invariants.
"""

from .presentations import (
    INF,
    CoxeterMatrix,
    EmbeddingInstance,
    HomZ2n,
    ParseError,
    PcSpec,
    Presentation,
    artin_presentation,
    build_artin_instance,
    build_artin_inversion_instance,
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
    coxeter_presentation,
    parse_presentation,
    parse_word,
    pc_presentation,
    serialize_presentation,
    serialize_word,
)
from .schreier import (
    KernelPresentation,
    SchreierGen,
    SymbolDict,
    Transversal,
    check_hom,
    commuting_letters,
    evaluated_kernel_presentation,
    image_rank,
    merge_symbols,
    raw_kernel_presentation,
    reidemeister_rewrite,
    right_angled_nf,
    transversal,
)
from .tietze import SimplifyTrace, simplify
from .verify import (
    AbelianInvariants,
    CosetTable,
    VerifyReport,
    abelianization,
    certified_infinite,
    coxeter_matrix_of,
    coxeter_order,
    coxeter_word_trivial,
    group_order,
    match_presentations,
    regular_rep,
    smith_normal_form,
    todd_coxeter,
    verify_instance,
    word_holds,
)
from .words import (
    Word,
    commutator,
    concat,
    cyclic_reduce,
    free_reduce,
    invert,
    letter,
    power,
    relator_nf,
)
