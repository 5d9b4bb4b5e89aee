import hashlib
import itertools
import json
import random
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxembed import verify
from coxembed.presentations import (
    INF,
    CoxeterMatrix,
    HomZ2n,
    Presentation,
    build_artin_instance,
    build_artin_inversion_instance,
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
    coxeter_presentation,
    parse_matrix_text,
    parse_presentation,
)
from coxembed.schreier import evaluated_kernel_presentation, raw_kernel_presentation
from coxembed.verify import (
    AbelianInvariants,
    abelianization,
    certified_infinite,
    coxeter_matrix_of,
    coxeter_order,
    coxeter_word_trivial,
    evaluated_matches_expected,
    expand_kernel_word,
    group_order,
    match_presentations,
    todd_coxeter,
    verify_instance,
    word_holds,
)
from coxembed.words import invert, power, relator_nf
from oracles import (
    brute_force_match,
    coxeter_form_positive_definite,
    dihedral_squared_times_klein_gens,
    eval_word_perm,
    evaluated_rewriter,
    list_coxeter_word_trivial,
    minor_gcd_diagonal,
    perm_closure,
    regular_rep,
    relabel,
    replace,
    smith_normal_form,
    triangle_times_klein_gens,
)
from test_presentations import _instance_sweep


def thm1_fixture():
    return build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}), (2, 2))


def affine_a3():
    return coxeter_presentation(
        CoxeterMatrix.from_pairs(
            4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3, (0, 2): 2, (1, 3): 2}
        )
    )


def test_todd_coxeter_small_orders():
    assert group_order(parse_presentation("< s | s^2 >")) == 2
    for m in range(2, 7):
        p = coxeter_presentation(CoxeterMatrix.from_pairs(2, {(0, 1): m}))
        assert group_order(p) == 2 * m
    a3 = coxeter_presentation(CoxeterMatrix.from_pairs(3, {(0, 1): 3, (1, 2): 3}))
    assert group_order(a3) == 24


def test_todd_coxeter_known_orders():
    cases = [
        ("< a, b | a^4, a^2 b^-2, b^-1 a b a >", 8),  # quaternion
        ("< a, b | a^2, b^3, (a b)^4 >", 24),  # (2,3,4) von Dyck
        ("< a, b | a^2, b^3, (a b)^5 >", 60),  # (2,3,5) von Dyck
        ("< a, b | a^3, b^3, (a b)^3, (a b^-1)^3 >", 27),  # Heisenberg mod 3
    ]
    for text, expected in cases:
        assert group_order(parse_presentation(text)) == expected
    b3 = coxeter_presentation(CoxeterMatrix.from_pairs(3, {(0, 1): 4, (1, 2): 3}))
    assert group_order(b3) == 48
    h3 = coxeter_presentation(CoxeterMatrix.from_pairs(3, {(0, 1): 5, (1, 2): 3}))
    assert group_order(h3) == 120
    # parabolic subgroup <s2, s3> is dihedral of order 6: index 48/6
    assert todd_coxeter(b3, ((2,), (3,))).num_cosets == 8


def test_todd_coxeter_index_and_budget():
    inst = thm1_fixture()
    tab = todd_coxeter(inst.ambient, inst.expected_words)
    assert tab.complete and tab.num_cosets == 4
    affine = todd_coxeter(affine_a3(), (), max_cosets=10_000)
    assert affine.status == "budget-exceeded"
    assert group_order(affine_a3(), max_cosets=10_000) == INF
    pres = parse_presentation("< a | a^2 >")
    for budget in (0, -1):
        with pytest.raises(ValueError, match="max_cosets"):
            todd_coxeter(pres, (), max_cosets=budget)
        with pytest.raises(ValueError, match="max_cosets"):
            group_order(pres, max_cosets=budget)
    assert group_order(pres, max_cosets=1) is None
    assert group_order(pres, max_cosets=2) == 2


def test_todd_coxeter_rejects_subgroup_letters_outside_the_alphabet():
    pres = parse_presentation("< a | a^2 >")
    for w in ((2,), (1, -2)):
        with pytest.raises(ValueError, match="letter -?2 outside alphabet of rank 1"):
            todd_coxeter(pres, [w])


def test_assert_closed_rejects_a_broken_table():
    # two cosets swapped by a: a^3 does not close, and a moves coset 0
    swap = verify.CosetTable("complete", 2, 2, ((1, 0),), ((1, 0),))
    involution = parse_presentation("< a | a^2 >")
    verify._assert_closed(swap, involution, ())
    with pytest.raises(AssertionError, match="relator trace does not close"):
        verify._assert_closed(swap, parse_presentation("< a | a^3 >"), ())
    with pytest.raises(AssertionError, match="subgroup word does not fix coset 0"):
        verify._assert_closed(swap, involution, [(1,)])


def test_certificate_equals_bilinear_form_oracle():
    # every Coxeter matrix of rank 1-4 with labels 2-6 and inf: the graph
    # classification calls a group infinite iff its form is not definite
    labels = (2, 3, 4, 5, 6, INF)
    count = 0
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for row in itertools.product(labels, repeat=len(pairs)):
            matrix = CoxeterMatrix.from_pairs(n, dict(zip(pairs, row)))
            pres = coxeter_presentation(matrix)
            assert coxeter_matrix_of(pres) == matrix
            assert certified_infinite(pres) is not coxeter_form_positive_definite(matrix.entries)
            count += 1
    assert count == 46_879


def test_coxeter_matrix_of_rejects_other_presentations():
    m3 = CoxeterMatrix.from_pairs(2, {(0, 1): 3})
    assert coxeter_matrix_of(build_artin_instance(m3).ambient) is None
    assert coxeter_matrix_of(thm1_fixture().expected_kernel) is None
    for text in (
        "< a, b | a^2, b^2, (a b)^2, (a b)^3 >",  # one pair, two labels
        "< a, b | a^2, (a b)^3 >",  # b has no b^2
        "< a, b | a^2, b^2, (a b^-1)^3 >",  # an inverse letter
        "< a, b | a, b^2 >",  # a relator of length 1
    ):
        assert coxeter_matrix_of(parse_presentation(text)) is None
    klein = coxeter_matrix_of(build_klein_instance().ambient)
    assert klein == CoxeterMatrix.from_pairs(4, {(0, 1): INF, (2, 3): INF})


def test_artin_label_3_ambients_are_finite_and_not_certified():
    # the artin doubles with label 3 are finite; only their expected
    # kernel, the Artin group with abelianization Z, is certified
    for n, pairs, order in ((2, {(0, 1): 3}, 192), (3, {(0, 1): 3, (1, 2): 3}, 3072)):
        inst = build_artin_instance(CoxeterMatrix.from_pairs(n, pairs))
        assert not certified_infinite(inst.ambient)
        assert group_order(inst.ambient) == order
        assert certified_infinite(inst.expected_kernel)


def _certified_instances():
    m3 = CoxeterMatrix.from_pairs(2, {(0, 1): 3})
    m4 = CoxeterMatrix.from_pairs(2, {(0, 1): 4})
    return [
        build_thm1_instance(CoxeterMatrix.from_rows([[1]]), (INF,)),
        build_thm1_instance(m4, (2, INF)),
        build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): INF}), (2, 2)),
        build_prop2_instance(m3, (4, 4)),
        build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (INF,)),
        build_klein_instance(),
        build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 2})),
        build_artin_instance(m3),
        build_artin_inversion_instance(m3),
    ]


def test_built_in_non_coxeter_ambients_have_certified_infinite_kernels():
    # so _finite_section enumerates a non-Coxeter ambient, and traces
    # relators through its table, only for hand-built instances
    swept = [inst for inst in _instance_sweep() if coxeter_matrix_of(inst.ambient) is None]
    assert {inst.family for inst in swept} == {"artin", "artin-inversion"}
    for inst in swept:
        assert certified_infinite(inst.expected_kernel), (inst.family, inst.params)


def test_certificate_leaves_verify_reports_unchanged(monkeypatch):
    import coxembed.verify as verify

    instances = _certified_instances()
    for inst in instances:
        assert certified_infinite(inst.ambient) or certified_infinite(inst.expected_kernel)
    certified = [verify_instance(inst, max_cosets=2000).to_dict() for inst in instances]
    monkeypatch.setattr(verify, "certified_infinite", lambda pres: False)
    enumerated = [verify_instance(inst, max_cosets=2000).to_dict() for inst in instances]
    assert certified == enumerated
    assert all(d["finite"] == "skipped" for d in certified)


def test_certified_groups_are_never_enumerated(monkeypatch):
    import coxembed.verify as verify

    def no_enumeration(*args, **kwargs):
        raise AssertionError("todd_coxeter called on a certified-infinite group")

    monkeypatch.setattr(verify, "todd_coxeter", no_enumeration)
    for inst in _certified_instances():
        assert verify_instance(inst).finite is None
    assert group_order(affine_a3(), 10**9) == INF
    assert group_order(parse_presentation("< a, b | >"), 10**9) == INF


def test_group_order_cross_checked_by_permutation_closure():
    inst = thm1_fixture()
    amb_gens = dihedral_squared_times_klein_gens()
    assert perm_closure(list(amb_gens)) == 32
    assert group_order(inst.ambient) == 32
    # kernel generated by s_i r_i inside the same permutation group
    from oracles import compose

    a1 = compose(amb_gens[2], amb_gens[0])
    a2 = compose(amb_gens[3], amb_gens[1])
    assert perm_closure([a1, a2]) == 8
    assert group_order(inst.expected_kernel) == 8

    small = build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,))
    assert group_order(small.ambient) == 8
    assert group_order(small.expected_kernel) == 4


def test_permutation_realization_satisfies_ambient_relators():
    inst = thm1_fixture()
    perms = dihedral_squared_times_klein_gens()
    for r in inst.ambient.relators:
        assert eval_word_perm(r, perms) == tuple(range(8))

    inst2 = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2))
    perms2 = triangle_times_klein_gens()
    for r in inst2.ambient.relators:
        assert eval_word_perm(r, perms2) == tuple(range(7))
    assert perm_closure(list(perms2)) == 24 == group_order(inst2.ambient)


def test_regular_rep():
    rep = regular_rep(parse_presentation("< s | s^2 >"))
    assert sorted(rep[0]) == [0, 1] and rep[0][0] != 0

    i23 = coxeter_presentation(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    rep = regular_rep(i23)
    for perm in rep:
        assert eval_word_perm((1, 1), (perm,)) == tuple(range(6))
    for r in i23.relators:
        assert word_holds(rep, r)

    with pytest.raises(ValueError):
        regular_rep(affine_a3(), max_cosets=5_000)


def test_word_holds_examples():
    inst = thm1_fixture()
    rep = regular_rep(inst.ambient)
    comm_sq = power(
        expand_kernel_word((1, 2, -1, -2), inst.expected_words), 2
    )
    assert word_holds(rep, comm_sq)
    assert not word_holds(rep, inst.expected_words[0])
    assert word_holds(rep, ())
    with pytest.raises(ValueError, match="outside alphabet"):
        word_holds(rep, (5,))
    # a rep with no generators has no points to walk, and its letters
    # are still validated
    trivial = regular_rep(Presentation((), ()))
    assert trivial == () and word_holds(trivial, ())
    for w in ((1,), (-1,)):
        with pytest.raises(ValueError, match="outside alphabet"):
            word_holds(trivial, w)


def test_word_holds_inverse_letters_match_permutation_product():
    # a^3 makes a no involution, so an inverse letter must act by the
    # inverse permutation: a^-1 b a b is a^-2 = a in S3, while a b a b is 1
    rep = regular_rep(parse_presentation("< a, b | a^3, b^2, (a b)^2 >"))
    identity = tuple(range(len(rep[0])))
    assert not word_holds(rep, (-1, 2, 1, 2))
    rng = random.Random(5)
    words = [tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(9))) for _ in range(300)]
    holds = [word_holds(rep, w) for w in words]
    assert holds == [eval_word_perm(w, rep) == identity for w in words]
    assert set(holds) == {True, False}


def test_involution_columns_cross_checked_by_permutation_closure():
    # involutions written g^2 and g^-2, inverse letters of involutions in
    # other relators, generators that are not involutions, and subgroup
    # words with inverted involution letters; each index is checked as the
    # order over the order of the subgroup's closure in the regular rep
    cases = [
        ("< a | a^-2 >", 2, [((-1,),)]),
        ("< a, b | a^-2, b^3, (a^-1 b)^5 >", 60, [((-1,),), ((-2,),), ((-1, 2),), ((-1,), (2,))]),
        ("< a, b | a^2, b^-2, (a^-1 b^-1)^4 >", 8, [((-1, -2),), ((-2,),)]),
        ("< a, b | a^4, a^2 b^-2, b^-1 a b a >", 8, [((-1,),)]),
        ("< a, b | a^3, b^3, (a b)^3, (a b^-1)^3 >", 27, [((1, -2),)]),
        ("< a, b, c | a^2, b^-2, c^2, (a b^-1)^3, (b^-1 c^-1)^4, (a c)^2 >", 48, [((-2,), (-3,)), ((-1, -3),)]),
        ("< a, b, c | a^-2, b^3, c^2, (a b)^2, (b^-1 c)^2, (a c)^3 >", 18, [((-1, 3),), ((2,),)]),
    ]
    for text, order, subgroups in cases:
        pres = parse_presentation(text)
        tab = todd_coxeter(pres)
        assert tab.complete and tab.num_cosets == order, text
        involutions = {abs(r[0]) - 1 for r in pres.relators if len(r) == 2 and r[0] == r[1]}
        for g in range(pres.rank):
            if g in involutions:
                assert tab.fwd[g] == tab.bwd[g]
            else:
                assert tab.bwd[g] == eval_word_perm((-g - 1,), tab.fwd)
        rep = regular_rep(pres)
        assert perm_closure(list(rep)) == order
        for r in pres.relators:
            assert eval_word_perm(r, rep) == tuple(range(order))
        for sub in subgroups:
            index = todd_coxeter(pres, sub).num_cosets
            assert index * perm_closure([eval_word_perm(w, rep) for w in sub]) == order, (text, sub)


def test_involution_columns_define_fewer_cosets():
    # one column per involution: the rank-3 right-angled thm1 ambient with
    # p = (6, 6, 6) defined 7617 cosets with a column and an inverse
    # column for every generator
    inst = build_thm1_instance(CoxeterMatrix.from_pairs(3, {}), (6, 6, 6))
    tab = todd_coxeter(inst.ambient)
    assert tab.num_cosets == 1728
    assert tab.num_defined == 3863 < 7617
    for g in range(inst.ambient.rank):
        assert tab.fwd[g] == tab.bwd[g]


def _finite_fixture_instances():
    """The finite thm1, prop2 and klein instances built from the fixture
    matrices (klein's ambient is infinite, so it contributes none)."""
    fixtures = Path(__file__).resolve().parents[1] / "scripts" / "fixtures"
    out = [build_klein_instance(), build_thm1_instance(CoxeterMatrix.from_rows([[1]]), (3,))]
    for name in ("m2x2_3", "m2x2_4", "m3x3_right_angled"):
        m = CoxeterMatrix.from_rows(parse_matrix_text((fixtures / f"{name}.txt").read_text()))
        for p in (2, 4):
            out.append(build_prop2_instance(m, (p,) * m.n))
        for p in (2, 3, 4):
            if m.is_even:
                out.append(build_thm1_instance(m, (p,) * m.n))
    out.append(build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,)))
    return [
        inst
        for inst in out
        if not certified_infinite(inst.ambient) and not certified_infinite(inst.expected_kernel)
    ]


def test_relators_hold_at_coset_0_equals_all_points_oracle():
    # the regular action is free, so tracing a word from coset 0 decides it
    # as word_holds does at every point; a relator times one kernel
    # generator is rejected by both
    instances = _finite_fixture_instances()
    assert len(instances) >= 6
    for inst in instances:
        tab = todd_coxeter(inst.ambient)
        rep = regular_rep(inst.ambient)
        words = inst.expected_words
        for k, r in enumerate(inst.expected_kernel.relators):
            w = expand_kernel_word(r, words)
            assert verify._trace(tab, w) == 0 and word_holds(rep, w)
            bad = expand_kernel_word(r + (k % len(words) + 1,), words)
            assert verify._trace(tab, bad) != 0 and not word_holds(rep, bad)
        assert verify._finite_section(inst, 50_000)["relators_hold"]
        r = inst.expected_kernel.relators[0]
        perturbed = replace(
            inst,
            expected_kernel=Presentation(
                inst.expected_kernel.gens, inst.expected_kernel.relators[1:] + (r + (1,),)
            ),
        )
        assert not word_holds(rep, expand_kernel_word(r + (1,), words))
        assert verify._finite_section(perturbed, 50_000)["relators_hold"] is False


def _coxeter_matrices(max_rank, labels=(2, 3, 4, 5, 6, INF)):
    """Every Coxeter matrix of rank 1..max_rank with the given labels."""
    for n in range(1, max_rank + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for row in itertools.product(labels, repeat=len(pairs)):
            yield CoxeterMatrix.from_pairs(n, dict(zip(pairs, row)))


def test_coxeter_order_against_enumeration_and_permutation_closure():
    # the closed form is None exactly where the bilinear form is not
    # definite, and otherwise equals the enumerated order and the order of
    # the permutation group generated by the coset table's columns
    finite = []
    for matrix in _coxeter_matrices(3):
        pres = coxeter_presentation(matrix)
        order = coxeter_order(matrix)
        assert (order is None) is certified_infinite(pres)
        assert (order is None) is not coxeter_form_positive_definite(matrix.entries)
        if order is not None:
            tab = todd_coxeter(pres)
            assert tab.num_cosets == order == perm_closure(list(regular_rep(pres))), matrix
            finite.append(order)
    assert len(finite) == 34 and max(finite) == 120  # H_3


def _path(*labels):
    return CoxeterMatrix.from_pairs(len(labels) + 1, {(i, i + 1): m for i, m in enumerate(labels)})


def _branched(path_length, leaf_at):
    """A path of ``path_length`` vertices with label 3, plus one leaf
    joined to vertex ``leaf_at``."""
    edges = {(i, i + 1): 3 for i in range(path_length - 1)}
    edges[(leaf_at, path_length)] = 3
    return CoxeterMatrix.from_pairs(path_length + 1, edges)


def test_coxeter_order_spot_values():
    assert coxeter_order(_branched(5, 2)) == 51_840  # E_6
    assert coxeter_order(_branched(6, 2)) == 2_903_040  # E_7
    assert coxeter_order(_branched(7, 2)) == 696_729_600  # E_8
    assert coxeter_order(_path(3, 4, 3)) == 1152  # F_4
    assert coxeter_order(_path(5, 3)) == 120  # H_3
    assert coxeter_order(_path(5, 3, 3)) == 14_400  # H_4
    assert coxeter_order(_branched(3, 1)) == 192  # D_4
    assert coxeter_order(_branched(4, 2)) == 1920  # D_5
    assert coxeter_order(_path(3, 4)) == coxeter_order(_path(4, 3)) == 48  # B_3
    assert coxeter_order(_path(3, 3, 4)) == 384  # B_4
    assert coxeter_order(_path(3, 3, 3)) == 120  # A_4
    assert coxeter_order(_path(7)) == 14  # I_2(7)
    # products of components: A_1 x A_1, I_2(5) x A_1, A_2 x A_2
    assert coxeter_order(_path(2)) == 4
    assert coxeter_order(CoxeterMatrix.from_pairs(3, {(0, 1): 5})) == 20
    assert coxeter_order(CoxeterMatrix.from_pairs(4, {(0, 1): 3, (2, 3): 3})) == 36
    for matrix in (_path(3, 4, 3), _branched(3, 1), _branched(4, 2), _path(3, 3, 4), _path(3, 3, 3)):
        assert todd_coxeter(coxeter_presentation(matrix)).num_cosets == coxeter_order(matrix)
    # affine and hyperbolic: a cycle, a 6 or a 5 off the end, a heavy edge
    # inside a long path, two heavy edges, T_{2,2,2}, and inf
    for matrix in (
        CoxeterMatrix.from_pairs(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}),
        _path(3, 6),
        _path(3, 5, 3),
        _path(3, 3, 4, 3),
        _path(4, 4),
        CoxeterMatrix.from_pairs(7, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3, (5, 6): 3}),
        _path(INF),
        CoxeterMatrix.from_pairs(5, {(0, k): 3 for k in range(1, 5)}),  # affine D_4, a 4-star
    ):
        assert coxeter_order(matrix) is None, matrix
        assert not coxeter_form_positive_definite(matrix.entries)


def _thm1_prop2_instances(max_rank, labels=(2, 3, 4, 5, 6, INF), orders=(2, 4, 6, INF)):
    """The thm1 (even labels) and prop2 instances of rank 1..max_rank."""
    for matrix in _coxeter_matrices(max_rank, labels):
        for p in itertools.product(orders, repeat=matrix.n):
            if matrix.is_even:
                yield build_thm1_instance(matrix, p)
            yield build_prop2_instance(matrix, p)


def _relator_words(inst):
    """Each expanded expected relator, and the same relator times one
    kernel generator, which the ambient does not satisfy."""
    words = inst.expected_words
    for k, r in enumerate(inst.expected_kernel.relators):
        yield expand_kernel_word(r, words), expand_kernel_word(r + (k % len(words) + 1,), words)


def test_chamber_check_agrees_with_coset_tracing_on_finite_ambients():
    # every finite thm1 and prop2 ambient of rank <= 3 with labels 2-6
    # and orders 2, 4, 6 (an inf label or order makes the ambient infinite)
    ambients = 0
    for inst in _thm1_prop2_instances(3, labels=(2, 3, 4, 5, 6), orders=(2, 4, 6)):
        matrix = coxeter_matrix_of(inst.ambient)
        if coxeter_order(matrix) is None:
            continue
        tab = todd_coxeter(inst.ambient)
        assert tab.num_cosets == coxeter_order(matrix)
        for holds, perturbed in _relator_words(inst):
            assert coxeter_word_trivial(matrix, holds) and verify._trace(tab, holds) == 0
            assert not coxeter_word_trivial(matrix, perturbed) and verify._trace(tab, perturbed) != 0
        ambients += 1
    assert ambients == 179


def _finite_quotients(matrix):
    """Tables of the finite groups got from ``matrix`` by giving every
    ``inf`` label one finite value; each is a quotient of its group."""
    for q in (2, 3, 4, 5, 6):
        quotient = CoxeterMatrix.from_rows([[q if m == INF else m for m in row] for row in matrix.entries])
        if (coxeter_order(quotient) or INF) <= 2000:
            yield todd_coxeter(coxeter_presentation(quotient))


def test_chamber_check_against_finite_quotients_of_infinite_ambients():
    # a word that is nontrivial in a quotient is nontrivial in the group:
    # the chamber check must reject it; the expanded relators hold in
    # every infinite rank <= 2 ambient, and a relator times a kernel
    # generator holds in none
    confirmed = 0
    for inst in _thm1_prop2_instances(2):
        matrix = coxeter_matrix_of(inst.ambient)
        if coxeter_order(matrix) is not None:
            continue
        quotients = list(_finite_quotients(matrix))
        for holds, perturbed in _relator_words(inst):
            assert coxeter_word_trivial(matrix, holds)
            assert not coxeter_word_trivial(matrix, perturbed)
            for tab in quotients:
                assert verify._trace(tab, holds) == 0
                confirmed += verify._trace(tab, perturbed) != 0
    assert confirmed == 834
    # random words on every rank-3 matrix with an inf label: any word that a
    # finite quotient finds nontrivial is rejected
    rng = random.Random(13)
    confirmed = 0
    for matrix in _coxeter_matrices(3):
        if matrix.n < 3 or all(m != INF for _, _, m in matrix.pairs()):
            continue
        quotients = list(_finite_quotients(matrix))
        for _ in range(5):
            w = tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(2 * rng.randint(1, 12)))
            if coxeter_word_trivial(matrix, w):
                assert all(verify._trace(tab, w) == 0 for tab in quotients)
            else:
                confirmed += any(verify._trace(tab, w) != 0 for tab in quotients)
    assert confirmed == 250


def test_chamber_check_negative_controls():
    # a dropped letter or a single letter has odd length, so the sign
    # character rejects it; an extra s t with m_st >= 3 conjugates s t,
    # of order m_st, into a trivial word
    instances = _finite_fixture_instances()
    for inst in instances:
        matrix = coxeter_matrix_of(inst.ambient)
        heavy = [(i + 1, j + 1) for i, j, m in matrix.pairs() if m != 2]
        for holds, _ in _relator_words(inst):
            assert coxeter_word_trivial(matrix, holds)
            for i in range(len(holds)):
                assert not coxeter_word_trivial(matrix, holds[:i] + holds[i + 1 :])
                for s, t in heavy:
                    assert not coxeter_word_trivial(matrix, holds[:i] + (s, t) + holds[i:])
        for s in range(1, matrix.n + 1):
            assert not coxeter_word_trivial(matrix, (s,))
            assert not coxeter_word_trivial(matrix, (-s,))
            assert coxeter_word_trivial(matrix, (s, -s)) and coxeter_word_trivial(matrix, (s, s))
        with pytest.raises(ValueError, match="outside alphabet"):
            coxeter_word_trivial(matrix, (matrix.n + 1,))
    assert coxeter_word_trivial(_path(INF), ())
    assert not coxeter_word_trivial(_path(INF), (1, 2) * 50)


def _list_oracle_agrees(matrix, words):
    """Assert that the packed chamber check, batched and one word at a
    time, gives the list form's verdict on every word; return them."""
    expected = [list_coxeter_word_trivial(matrix, w) for w in words]
    assert list(verify._chamber_checks(matrix, words)) == expected, matrix
    assert [coxeter_word_trivial(matrix, w) for w in words] == expected, matrix
    return expected


def test_packed_chamber_check_equals_list_oracle_on_the_instance_sweep():
    # every expanded expected relator of every Coxeter-ambient instance of
    # the sweep, and four perturbed copies of each: times a kernel
    # generator, last letter dropped, letter 1 appended, first letter
    # doubled
    verdicts = []
    for inst in _instance_sweep():
        matrix = coxeter_matrix_of(inst.ambient)
        if matrix is None:
            continue
        words = []
        for holds, perturbed in _relator_words(inst):
            words += [holds, perturbed, holds[:-1], holds + (1,), holds[:1] + holds]
        verdicts += _list_oracle_agrees(matrix, words)
    assert (verdicts.count(True), verdicts.count(False)) == (711, 4 * 711)


def _random_matrix_words(rng, matrix, count, max_len=200):
    """Random words on ``matrix``'s generators of up to about ``max_len``
    letters, in turn: uniform ones; a word times its inverse; a product of
    conjugates of ``s^2`` and ``(s t)^m_st``; such a product with one
    letter replaced; and one with a false relation ``(s t)^k``, ``k`` in
    2-6 and not ``m_st``, among its factors."""
    n = matrix.n
    relations = [(i + 1, i + 1) for i in range(n)]
    relations += [(i + 1, j + 1) * m for i, j, m in matrix.pairs() if m != INF]
    false = [(i + 1, j + 1) * k for i, j, m in matrix.pairs() for k in range(2, 7) if k != m]
    words = []
    for k in range(count):
        length = rng.randint(0, max_len)
        if k % 5 == 0:
            words.append(tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length)))
        elif k % 5 == 1:
            half = tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length // 2))
            words.append(half + invert(half))
        else:
            pieces = [()]
            while sum(map(len, pieces)) < length:
                pieces.append(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 12))))
                pieces[-1] += rng.choice(relations) + invert(pieces[-1])
            if k % 5 == 4 and false:
                u = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 12)))
                pieces[rng.randrange(len(pieces))] = u + rng.choice(false) + invert(u)
            w = sum(pieces, ())
            if k % 5 == 3 and w:
                i = rng.randrange(len(w))
                w = w[:i] + (rng.randint(1, n),) + w[i + 1 :]
            words.append(w)
    return words


def test_packed_chamber_check_equals_list_oracle_on_long_random_words():
    # hyperbolic labels make the coordinates grow exponentially along a
    # word, so 200 letters need packing widths of hundreds of bits per
    # coefficient
    rng = random.Random(18)
    labels = (2, 3, 4, 5, 6, INF)
    verdicts = []
    for n in (3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(10):
            matrix = CoxeterMatrix.from_pairs(n, {pair: rng.choice(labels) for pair in pairs})
            verdicts += _list_oracle_agrees(matrix, _random_matrix_words(rng, matrix, 10))
    assert (verdicts.count(True), verdicts.count(False)) == (101, 99)


def test_packed_chamber_check_on_empty_words_and_batches():
    for matrix in (CoxeterMatrix.from_rows([]), _path(INF), _path(3, 5), _branched(3, 1)):
        assert list(verify._chamber_checks(matrix, [])) == []
        assert _list_oracle_agrees(matrix, [(), ()]) == [True, True]
    with pytest.raises(ValueError, match="outside alphabet"):
        coxeter_word_trivial(CoxeterMatrix.from_rows([]), (1,))


def test_coxeter_ambients_are_never_enumerated(monkeypatch):
    # the finite section takes a Coxeter ambient's order from its graph and
    # checks relators on the chamber: no enumeration of the ambient runs;
    # a non-Coxeter twin of the thm1 fixture, one (r_i r_j)^2 written as a
    # commutator, presents the same group and is still enumerated
    calls = []
    enumerate_ = verify.todd_coxeter

    def recorded(pres, words=(), *args):
        calls.append((pres, tuple(words)))
        return enumerate_(pres, words, *args)

    monkeypatch.setattr(verify, "todd_coxeter", recorded)
    instances = _finite_fixture_instances()
    assert len(instances) >= 6
    for inst in instances:
        calls.clear()
        finite = verify_instance(inst).finite
        assert finite["product_ok"] and finite["relators_hold"]
        assert (inst.ambient, ()) not in calls and len(calls) == 2

    inst = thm1_fixture()
    r1r2 = inst.ambient.relators.index((1, 2, 1, 2))
    relators = list(inst.ambient.relators)
    relators[r1r2] = (1, 2, -1, -2)
    twin = replace(inst, ambient=Presentation(inst.ambient.gens, tuple(relators)))
    assert coxeter_matrix_of(twin.ambient) is None
    calls.clear()
    assert verify_instance(twin).finite == verify_instance(inst).finite
    assert (twin.ambient, ()) in calls


def test_max_cosets_bounds_only_the_kernel_and_index_enumerations():
    # the right-angled rank-3 doubles with p = (6, 6, 6) read skipped at
    # 2000 cosets while their ambient was enumerated (3863 cosets defined);
    # the kernel and index enumerations fit, so the section is decided
    m = CoxeterMatrix.from_pairs(3, {})
    for build in (build_thm1_instance, build_prop2_instance):
        report = verify_instance(build(m, (6, 6, 6)), max_cosets=2000)
        assert report.finite == {
            "ambient_order": 1728,
            "kernel_order": 216,
            "index": 8,
            "product_ok": True,
            "relators_hold": True,
        }
        assert report.verdict == "pass"


def test_run_embeddings_rewrites_each_kernel_once(monkeypatch, capsys):
    # 8 constructions, one raw rewrite each, made by verify; the printed
    # evaluated kernels are built from coset 0
    import coxembed.schreier as schreier

    calls = []
    rewrite = schreier.raw_kernel_presentation
    counted = lambda *a: calls.append(a) or rewrite(*a)  # noqa: E731
    monkeypatch.setattr(schreier, "raw_kernel_presentation", counted)
    script = Path(__file__).resolve().parents[1] / "scripts/run_embeddings.py"
    runpy.run_path(str(script), run_name="__main__")
    assert len(calls) == 8
    assert capsys.readouterr().out.count("verdict :") == 8


def test_smith_normal_form_examples():
    assert smith_normal_form([[0, 2]]) == (2,)
    assert smith_normal_form([[2, 0], [0, 2]]) == (2, 2)
    assert smith_normal_form([[2, 1], [0, 2]]) == (1, 4)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[4, 0], [0, 6]]) == (2, 12)
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
@settings(max_examples=150, deadline=None)
def test_smith_normal_form_matches_minor_gcds(rows):
    assert smith_normal_form(rows) == minor_gcd_diagonal(rows)


def test_smith_divisibility_chain():
    rng = random.Random(93)
    for _ in range(100):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        diag = smith_normal_form(rows)
        assert diag == minor_gcd_diagonal(rows)
        nonzero = [d for d in diag if d]
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        assert all(d == 0 for d in diag[len(nonzero):])


def _random_matrix(rng, m, n, entries):
    return [[rng.choice(entries) for _ in range(n)] for _ in range(m)]


def test_smith_normal_form_sparse_unit_entries():
    # mostly zeros and +-1, as in exponent-sum matrices, so the unit-pivot
    # elimination handles most of each matrix
    rng = random.Random(31)
    entries = (0, 0, 0, 1, -1, 1, -1, 2, -3)
    for m, n in ((4, 5), (5, 4)):
        for _ in range(150):
            rows = _random_matrix(rng, m, n, entries)
            assert smith_normal_form(rows) == minor_gcd_diagonal(rows)


def test_smith_normal_form_without_unit_entries():
    rng = random.Random(32)
    entries = (0, 0, 2, -2, 3, 4, -6, 9)
    for m, n in ((3, 4), (4, 3), (4, 5), (5, 4)):
        for _ in range(60):
            rows = _random_matrix(rng, m, n, entries)
            assert smith_normal_form(rows) == minor_gcd_diagonal(rows)


def test_smith_normal_form_zero_rows_and_columns():
    rng = random.Random(33)
    entries = (0, 1, -1, 2, -2, 3)
    for m, n in ((4, 5), (5, 4), (3, 3)):
        for _ in range(60):
            rows = _random_matrix(rng, m, n, entries)
            for i in rng.sample(range(m), rng.randint(1, m - 1)):
                rows[i] = [0] * n
            for j in rng.sample(range(n), rng.randint(0, n - 1)):
                for row in rows:
                    row[j] = 0
            diag = smith_normal_form(rows)
            assert len(diag) == min(m, n)
            assert diag == minor_gcd_diagonal(rows)
    assert smith_normal_form([[0, 0, 0], [0, 1, 0]]) == (1, 0)
    assert smith_normal_form([[0], [0], [-1], [2]]) == (1,)


def test_thm1_rank5_kernel_abelianization_closed_form():
    # the kernel is the power-commutator group, whose abelianization is
    # the sum of the Z_{p_i}; its invariant factors come from the
    # minor-gcd oracle.  The raw kernel gives a 1760 x 289 exponent matrix.
    from coxembed.schreier import raw_kernel_presentation
    from coxembed.tietze import simplify

    chain = CoxeterMatrix.from_pairs(5, {(i, i + 1): 4 for i in range(4)})
    for orders in ((2, 2, 2, 2, 2), (2, 3, 2, 4, 3)):
        inst = build_thm1_instance(chain, orders)
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        diag = minor_gcd_diagonal([[p if i == j else 0 for j in range(5)] for i, p in enumerate(orders)])
        expected = AbelianInvariants(0, tuple(d for d in diag if d > 1))
        assert abelianization(raw.presentation) == expected
        assert abelianization(simplify(raw.presentation)[0]) == expected


def test_abelianization_examples():
    klein = build_klein_instance().expected_kernel
    assert abelianization(klein) == AbelianInvariants(1, (2,))

    pc = thm1_fixture().expected_kernel
    assert abelianization(pc) == AbelianInvariants(0, (2, 2))

    braid = parse_presentation("< a, b | a b a (b a b)^-1 >")
    assert abelianization(braid) == AbelianInvariants(1, ())

    free = parse_presentation("< a, b | >")
    assert abelianization(free) == AbelianInvariants(2, ())


def test_abelian_invariants_reject_bad_input():
    with pytest.raises(ValueError, match="free rank must be >= 0"):
        AbelianInvariants(-1, ())
    for torsion in ((1,), (2, 0)):
        with pytest.raises(ValueError, match="torsion coefficients must be >= 2"):
            AbelianInvariants(0, torsion)
    with pytest.raises(ValueError, match="torsion coefficients must form a divisibility chain"):
        AbelianInvariants(0, (2, 3))


def test_match_presentations():
    inst = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (4, 4))
    kernel = evaluated_kernel_presentation(inst).presentation
    assert match_presentations(kernel, affine_a3()) is not None

    p = parse_presentation("< a, b | a^2, a b a b >")
    assert match_presentations(p, p) == ((0, 1), (1, 1))
    assert match_presentations(
        parse_presentation("< a | a^2 >"), parse_presentation("< a | a^3 >")
    ) is None

    free9 = Presentation(tuple(f"g{i}" for i in range(9)))
    assert match_presentations(free9, free9) == tuple((g, 1) for g in range(9))


def _relabel(pres, perm, signs):
    """``pres`` with generator g sent to generator ``perm[g]`` raised to
    ``signs[g]``."""
    mapping = [(t + 1) * s for t, s in zip(perm, signs)]
    rels = tuple(relabel(r, mapping) for r in pres.relators)
    return Presentation(tuple(f"g{g}" for g in range(pres.rank)), rels)


def _nfs(pres):
    return sorted(relator_nf(r) for r in pres.relators)


def test_match_presentations_relabelings():
    rng = random.Random(7)
    base = thm1_fixture().expected_kernel
    for _ in range(10):
        perm = list(range(base.rank))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(base.rank)]
        assert match_presentations(base, _relabel(base, perm, signs)) is not None


def test_match_presentations_rank10_prop2_kernel():
    kernel = build_prop2_instance(
        CoxeterMatrix.from_pairs(5, {(i, i + 1): 3 for i in range(4)}), (4,) * 5
    ).expected_kernel
    assert kernel.rank == 10
    rng = random.Random(11)
    perm = rng.sample(range(10), 10)
    signs = [rng.choice((1, -1)) for _ in range(10)]
    relabeled = _relabel(kernel, perm, signs)
    result = match_presentations(kernel, relabeled)
    assert result is not None
    assert _nfs(_relabel(kernel, [t for t, _ in result], [s for _, s in result])) == _nfs(relabeled)


def test_match_presentations_rank7_chain_vs_star():
    def kernel(edges):
        matrix = CoxeterMatrix.from_pairs(7, {e: 4 for e in edges})
        return build_thm1_instance(matrix, (2,) * 7).expected_kernel

    chain = kernel([(i, i + 1) for i in range(6)])
    star = kernel([(0, i) for i in range(1, 7)])
    assert match_presentations(chain, star) is None
    assert match_presentations(chain, chain) == tuple((g, 1) for g in range(7))


def test_match_presentations_relators_closing_at_the_last_generator():
    # every relator involves g11, so no relator check is due before the
    # last target is placed; the adjacent-pair checks prune the search
    gens = tuple(f"g{g}" for g in range(12))
    ring = tuple(range(1, 13))
    p = Presentation(gens, (ring, power((1, 12), 2)))
    q = Presentation(gens, (ring, power((1, 6), 2)))
    assert match_presentations(p, q) is None
    relabeled = _relabel(p, [(g + 5) % 12 for g in range(12)], [-1] * 12)
    result = match_presentations(p, relabeled)
    assert result is not None
    assert _nfs(_relabel(p, [t for t, _ in result], [s for _, s in result])) == _nfs(relabeled)


@st.composite
def _match_pairs(draw):
    """A random presentation of rank <= 5 with duplicate relators, and a
    partner: a signed relabeling with relators shuffled, perturbed or
    duplicated, or an unrelated presentation of the same rank."""
    n = draw(st.integers(1, 5))
    word = st.lists(st.integers(-n, n).filter(bool), min_size=1, max_size=6).map(tuple)
    rels = draw(st.lists(word, max_size=4))
    if rels:
        rels += draw(st.lists(st.sampled_from(rels), max_size=1))
    p = Presentation(tuple(f"g{g}" for g in range(n)), tuple(rels))
    if draw(st.booleans()):
        q_rels = draw(st.lists(word, max_size=5))
    else:
        perm = draw(st.permutations(range(n)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        q_rels = list(_relabel(p, perm, signs).relators)
        if q_rels and draw(st.booleans()):
            i = draw(st.integers(0, len(q_rels) - 1))
            j = draw(st.integers(0, len(q_rels[i]) - 1))
            q_rels[i] = q_rels[i][:j] + (draw(st.integers(-n, n).filter(bool)),) + q_rels[i][j + 1 :]
        if q_rels:
            q_rels += draw(st.lists(st.sampled_from(q_rels), max_size=1))
        q_rels = draw(st.permutations(q_rels))
    return p, Presentation(tuple(f"h{g}" for g in range(n)), tuple(q_rels))


@given(_match_pairs())
@settings(max_examples=150, deadline=None)
def test_match_presentations_equals_brute_force(pair):
    p, q = pair
    assert match_presentations(p, q) == brute_force_match(p, q)


def test_verify_instance_thm1():
    report = verify_instance(thm1_fixture())
    d = report.to_dict()
    assert d["verdict"] == "pass"
    assert d["finite"]["ambient_order"] == 32
    assert d["finite"]["kernel_order"] == 8
    assert d["finite"]["index"] == 4
    assert d["finite"]["product_ok"] and d["finite"]["relators_hold"]
    assert d["evaluated"] == {"generators": 2, "relator_nf_match": True}
    assert d["raw"] == {"generators_after_simplify": 2, "matched": True}
    assert d["split_section"] is True
    assert list(d) == [
        "instance",
        "hom_valid",
        "image_rank",
        "transversal_size",
        "evaluated",
        "raw",
        "finite",
        "split_section",
        "verdict",
    ]


def test_instance_guarantees_a_valid_hom():
    # verify_instance reports hom_valid without checking it: the instance
    # constructor already rejects every hom that it would find invalid
    inst = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2))
    assert verify_instance(inst).to_dict()["hom_valid"] is True
    with pytest.raises(ValueError, match="hom does not kill every ambient relator"):
        replace(inst, hom=HomZ2n(2, (1, 2, 1, 0)))
    with pytest.raises(ValueError, match="hom must cover every ambient generator"):
        replace(inst, hom=HomZ2n(2, (1, 2, 0)))
    with pytest.raises(ValueError, match="transversal generators do not span the image"):
        replace(inst, transversal_gens=(0,))


def test_verify_instance_klein():
    report = verify_instance(build_klein_instance(), max_cosets=5_000)
    d = report.to_dict()
    assert d["finite"] == "skipped"
    assert d["verdict"] == "pass"
    ev = evaluated_kernel_presentation(build_klein_instance()).presentation
    assert abelianization(ev) == AbelianInvariants(1, (2,))


def test_verify_instance_prop2_finite():
    inst = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2))
    d = verify_instance(inst).to_dict()
    assert d["verdict"] == "pass"
    assert d["finite"]["ambient_order"] == 24
    assert d["finite"]["kernel_order"] == 6
    assert d["finite"]["index"] == 4


def test_verify_instance_prop2_rank_three_finite():
    # kernel at orders (2,2,2) collapses to the Coxeter group of the
    # matrix itself: labels (3,2,3) give S4, so |W''| = 2^3 * 24
    inst = build_prop2_instance(
        CoxeterMatrix.from_pairs(3, {(0, 1): 3, (0, 2): 2, (1, 2): 3}), (2, 2, 2)
    )
    d = verify_instance(inst).to_dict()
    assert d["verdict"] == "pass"
    assert d["finite"]["ambient_order"] == 192
    assert d["finite"]["kernel_order"] == 24
    assert d["finite"]["index"] == 8


def test_verify_instance_artin_reports_mismatch():
    # the sign-flipped braid class is a genuine extra relation for label 3:
    # adding it collapses the order-24 quotient <a,b | braid, a^3, b^3>
    braid_q = parse_presentation("< a, b | a b a (b a b)^-1, a^3, b^3 >")
    assert group_order(braid_q) == 24
    collapsed = parse_presentation(
        "< a, b | a b a (b a b)^-1, a^-1 b a^-1 b^-1 a b^-1, a^3, b^3 >"
    )
    assert group_order(collapsed) == 1

    inst = build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    d = verify_instance(inst).to_dict()
    assert d["evaluated"]["relator_nf_match"] is False
    assert d["raw"]["matched"] is False
    assert d["verdict"] == "fail"

    # label 2 is the commutator case and verifies cleanly
    inst2 = build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 2}))
    d2 = verify_instance(inst2).to_dict()
    assert d2["evaluated"]["relator_nf_match"] is True
    assert d2["verdict"] == "pass"


def test_evaluated_match_negative_controls():
    # each control breaks E or the map a_j -> expected word, and the
    # evaluated match must catch it and fail the verdict
    m4 = CoxeterMatrix.from_pairs(2, {(0, 1): 4})
    pc = build_thm1_instance(m4, (2, 2))
    gens, rels = pc.expected_kernel.gens, pc.expected_kernel.relators
    assert rels[1:] == ((1, 1), (2, 2))  # a1^2, a2^2
    half = build_thm1_instance(m4, (2, INF))
    prop2 = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (4, 4))
    p_gens, p_rels = prop2.expected_kernel.gens, prop2.expected_kernel.relators
    k = p_rels.index((1, 2, 1, 2, 1, 2))  # (s1 s2)^3
    controls = [
        replace(pc, expected_kernel=Presentation(gens, rels[:-1])),
        replace(pc, expected_kernel=Presentation(gens, (rels[0], (1, 1, 1, 1), rels[2]))),
        replace(half, expected_words=half.expected_words[::-1]),
        replace(prop2, expected_kernel=Presentation(p_gens, p_rels[:k] + p_rels[k + 1:])),
    ]
    reports = [verify_instance(inst) for inst in controls]
    assert [r.evaluated_relator_nf_match for r in reports] == [False] * 4
    assert [r.verdict for r in reports] == ["fail"] * 4
    # a1 has order 2 and a2 infinite order, so only the evaluated match
    # sees the swapped words: the raw comparison still matches
    assert reports[2].raw_matched is True
    # not a control: at orders (2, 2) swapping the words is an
    # automorphism of E, so that instance still passes
    assert verify_instance(replace(pc, expected_words=pc.expected_words[::-1])).verdict == "pass"
    # the same relators under another generator name are no match
    kernel = evaluated_kernel_presentation(pc).presentation
    assert evaluated_matches_expected(kernel, pc.expected_kernel)
    assert not evaluated_matches_expected(kernel, pc.expected_kernel.rename(("a1", "b2")))


def _rank2_family_instances():
    """The family instances of rank at most 2: thm1 (even labels) and
    prop2 at labels 2, 3, 4, 6 and inf and orders 2, 4, 6 and inf, artin
    and artin-inversion at rank 2, and klein."""
    matrices = [CoxeterMatrix.from_rows([[1]])]
    matrices += [CoxeterMatrix.from_pairs(2, {(0, 1): m}) for m in (2, 3, 4, 6, INF)]
    insts = [build_klein_instance()]
    for matrix in matrices:
        for orders in itertools.product((2, 4, 6, INF), repeat=matrix.n):
            if matrix.is_even:
                insts.append(build_thm1_instance(matrix, orders))
            insts.append(build_prop2_instance(matrix, orders))
        if matrix.n == 2:
            insts += [build_artin_instance(matrix), build_artin_inversion_instance(matrix)]
    return insts


def test_expected_relators_hold_in_the_ambient():
    # phi: a_j -> expected_words[j] sends every relator of E to the
    # identity of W, decided by the chamber check on a Coxeter ambient
    insts = _rank2_family_instances()
    coxeter = [(inst, coxeter_matrix_of(inst.ambient)) for inst in insts]
    coxeter = [(inst, matrix) for inst, matrix in coxeter if matrix is not None]
    assert (len(insts), len(coxeter)) == (163, 154)
    for inst, matrix in coxeter:
        for r in inst.expected_kernel.relators:
            word = expand_kernel_word(r, inst.expected_words)
            assert coxeter_word_trivial(matrix, word), (inst.family, inst.params, r)


def test_rewrite_sends_each_expected_word_to_its_generator():
    # psi tau phi = id_E: the Reidemeister-Schreier rewrite tau of
    # expected_words[j], merged by psi, is the one-letter word of the
    # evaluated symbol named expected_kernel.gens[j]; this holds on the
    # artin instances whose verdict is fail too
    for inst in _rank2_family_instances():
        table, rewrite = evaluated_rewriter(inst)
        letters = {g.name: k + 1 for k, g in enumerate(table)}
        for name, w in zip(inst.expected_kernel.gens, inst.expected_words):
            assert rewrite(w) == (letters[name],), (inst.family, inst.params, name)


def test_verify_instance_orders_agree_on_finite_fixtures():
    for inst in (
        thm1_fixture(),
        build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,)),
        build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2)),
    ):
        ev = evaluated_kernel_presentation(inst).presentation
        assert group_order(ev) == group_order(inst.expected_kernel)


def test_verify_instance_prop2_rank5_chain_matches_at_rank_10():
    # the expected kernel has 10 generators; the raw comparison must decide
    # a match at that rank, not report a failed one
    inst = build_prop2_instance(
        CoxeterMatrix.from_pairs(5, {(i, i + 1): 3 for i in range(4)}), (4,) * 5
    )
    report = verify_instance(inst, max_cosets=2_000)
    assert report.raw_matched
    assert report.verdict == "pass"


def test_verify_instance_rewrites_once(monkeypatch):
    # one walk through the coset step tables per (coset, ambient relator)
    # pair, 4 cosets times 10 ambient relators, all 40 for the raw kernel;
    # the evaluated kernel is read from coset 0 and walks no coset
    import coxembed.schreier as schreier

    calls = []
    walk = schreier._walk
    monkeypatch.setattr(schreier, "_walk", lambda steps, *a: (len(steps) > 1 and calls.append(a)) or walk(steps, *a))
    assert verify_instance(thm1_fixture()).verdict == "pass"
    assert len(calls) == 40


def test_verify_instance_bounded_raw_comparison_is_skipped():
    # simplify runs to completion, so the rank-4 and rank-5 chains (109 and
    # 284 eliminations) decide their raw comparison
    for n in (4, 5):
        inst = build_thm1_instance(
            CoxeterMatrix.from_pairs(n, {(i, i + 1): 4 for i in range(n - 1)}), (2,) * n
        )
        d = verify_instance(inst, max_cosets=2_000).to_dict()
        assert d["raw"] == {"generators_after_simplify": n, "matched": True}
        assert d["verdict"] == "pass"
    # a simplify stopped by the length bound decides nothing
    d = verify_instance(thm1_fixture(), max_relator_length=6).to_dict()
    assert d["raw"] == {"generators_after_simplify": 8, "matched": "skipped"}
    assert d["verdict"] == "pass"


def test_instance_digests_script_at_rank_1():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts/instance_digests.py"), "--max-rank", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert [line.split(" ", 1)[0] for line in lines] == ["thm1"] * 4 + ["prop2"] * 4 + ["klein"]
    assert lines[0].startswith('thm1 {"m": [[1]], "p": [2]} ')
    report = json.dumps(verify_instance(build_klein_instance()).to_dict(), sort_keys=True)
    assert lines[-1] == "klein {} " + hashlib.sha256(report.encode()).hexdigest()
