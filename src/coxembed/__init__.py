"""Reidemeister-Schreier computations for Coxeter-style group presentations.

Builds presentations of Coxeter, power-commutator and Artin-type groups,
computes kernel presentations of homomorphisms onto elementary abelian
2-groups, simplifies them with Tietze transformations, and verifies the
results with Todd-Coxeter coset enumeration and abelianization
invariants.

Exported names resolve on first access (PEP 562), so importing the
package loads no submodule.
"""

import importlib

# submodule -> the names the package exports from it
_NAMES = {
    "presentations": """INF CoxeterMatrix EmbeddingInstance HomZ2n ParseError PcSpec
        Presentation artin_presentation build_artin_instance build_artin_inversion_instance
        build_klein_instance build_prop2_instance build_thm1_instance coxeter_presentation
        parse_presentation parse_word pc_presentation serialize_presentation serialize_word""",
    "schreier": """KernelPresentation SchreierGen commuting_letters evaluated_kernel_presentation
        image_rank raw_kernel_presentation right_angled_nf transversal""",
    "tietze": "SimplifyTrace simplify",
    "verify": """AbelianInvariants CosetTable VerifyReport abelianization certified_infinite
        coxeter_matrix_of coxeter_order coxeter_word_trivial group_order match_presentations
        todd_coxeter verify_instance word_holds""",
    "words": "Word commutator concat cyclic_reduce free_reduce invert letter power relator_nf",
}
# exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = [*_EXPORTS, *_NAMES]


def __getattr__(name: str):
    # read from the submodule on every access and never stored here, so a
    # function patched in its submodule is the one the package returns
    module = name if name in _NAMES else _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{module}")
    return home if module == name else getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__})
