import dataclasses
import itertools
import random
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
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
    coxeter_presentation,
    parse_matrix_text,
    parse_presentation,
)
from coxembed.schreier import evaluated_kernel_presentation
from coxembed.verify import (
    AbelianInvariants,
    Budgets,
    abelianization,
    certified_infinite,
    coxeter_matrix_of,
    expand_kernel_word,
    group_order,
    match_presentations,
    regular_rep,
    smith_normal_form,
    todd_coxeter,
    verify_instance,
    word_holds,
)
from coxembed.words import power, relabel, relator_nf
from oracles import (
    brute_force_match,
    coxeter_form_positive_definite,
    dihedral_squared_times_klein_gens,
    eval_word_perm,
    minor_gcd_diagonal,
    perm_closure,
    triangle_times_klein_gens,
)


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
    assert group_order(affine_a3(), max_cosets=10_000) is None
    pres = parse_presentation("< a | a^2 >")
    for budget in (0, -1):
        with pytest.raises(ValueError, match="max_cosets"):
            todd_coxeter(pres, (), max_cosets=budget)
        with pytest.raises(ValueError, match="max_cosets"):
            group_order(pres, max_cosets=budget)
    assert group_order(pres, max_cosets=1) is None
    assert group_order(pres, max_cosets=2) == 2


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
    ]


def test_certificate_leaves_verify_reports_unchanged(monkeypatch):
    import coxembed.verify as verify

    instances = _certified_instances()
    for inst in instances:
        assert certified_infinite(inst.ambient) or certified_infinite(inst.expected_kernel)
    budgets = Budgets(max_cosets=2000)
    certified = [verify_instance(inst, budgets).to_dict() for inst in instances]
    monkeypatch.setattr(verify, "certified_infinite", lambda pres: False)
    enumerated = [verify_instance(inst, budgets).to_dict() for inst in instances]
    assert certified == enumerated
    assert all(d["finite"] == "skipped" for d in certified)


def test_certified_groups_are_never_enumerated(monkeypatch):
    import coxembed.verify as verify

    def no_enumeration(*args, **kwargs):
        raise AssertionError("todd_coxeter called on a certified-infinite group")

    monkeypatch.setattr(verify, "todd_coxeter", no_enumeration)
    for inst in _certified_instances():
        assert verify_instance(inst).finite is None
    assert group_order(affine_a3(), 10**9) is None
    assert group_order(parse_presentation("< a, b | >"), 10**9) is None


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
    tab = todd_coxeter(parse_presentation("< s | s^2 >"))
    rep = regular_rep(tab)
    assert sorted(rep[0]) == [0, 1] and rep[0][0] != 0

    i23 = coxeter_presentation(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    rep = regular_rep(todd_coxeter(i23))
    for perm in rep:
        assert eval_word_perm((1, 1), (perm,)) == tuple(range(6))
    for r in i23.relators:
        assert word_holds(rep, r)

    with pytest.raises(ValueError):
        regular_rep(todd_coxeter(affine_a3(), (), max_cosets=5_000))
    with pytest.raises(ValueError):
        regular_rep(todd_coxeter(i23, ((1,),)))


def test_word_holds_examples():
    inst = thm1_fixture()
    rep = regular_rep(todd_coxeter(inst.ambient))
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
    trivial = regular_rep(todd_coxeter(Presentation((), ())))
    assert trivial == () and word_holds(trivial, ())
    for w in ((1,), (-1,)):
        with pytest.raises(ValueError, match="outside alphabet"):
            word_holds(trivial, w)


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
        rep = regular_rep(tab)
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
        rep = regular_rep(tab)
        words = inst.expected_words
        for k, r in enumerate(inst.expected_kernel.relators):
            w = expand_kernel_word(r, words)
            assert verify._trace(tab, w) == 0 and word_holds(rep, w)
            bad = expand_kernel_word(r + (k % len(words) + 1,), words)
            assert verify._trace(tab, bad) != 0 and not word_holds(rep, bad)
        assert verify._finite_section(inst, 50_000)["relators_hold"]
        r = inst.expected_kernel.relators[0]
        perturbed = dataclasses.replace(
            inst,
            expected_kernel=Presentation(
                inst.expected_kernel.gens, inst.expected_kernel.relators[1:] + (r + (1,),)
            ),
        )
        assert not word_holds(rep, expand_kernel_word(r + (1,), words))
        assert verify._finite_section(perturbed, 50_000)["relators_hold"] is False


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
    assert verify_instance(inst).hom_valid is True
    with pytest.raises(ValueError, match="hom does not kill every ambient relator"):
        dataclasses.replace(inst, hom=HomZ2n(2, (1, 2, 1, 0)))
    with pytest.raises(ValueError, match="hom must cover every ambient generator"):
        dataclasses.replace(inst, hom=HomZ2n(2, (1, 2, 0)))
    with pytest.raises(ValueError, match="transversal generators do not span the image"):
        dataclasses.replace(inst, transversal_gens=(0,))


def test_verify_instance_klein():
    report = verify_instance(build_klein_instance(), Budgets(max_cosets=5_000))
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
    report = verify_instance(inst, Budgets(max_cosets=2_000))
    assert report.raw_matched
    assert report.verdict == "pass"


def test_verify_instance_rewrites_once(monkeypatch):
    # the evaluated kernel is merged from the raw one: one rewrite per
    # (coset, ambient relator) pair, 4 cosets times 10 ambient relators
    import coxembed.schreier as schreier

    calls = []
    rewrite = schreier.reidemeister_rewrite
    monkeypatch.setattr(schreier, "reidemeister_rewrite", lambda *a: calls.append(a) or rewrite(*a))
    assert verify_instance(thm1_fixture()).verdict == "pass"
    assert len(calls) == 40


def test_verify_instance_bounded_raw_comparison_is_skipped():
    # simplify runs to completion, so the rank-4 and rank-5 chains (109 and
    # 284 eliminations) decide their raw comparison
    for n in (4, 5):
        inst = build_thm1_instance(
            CoxeterMatrix.from_pairs(n, {(i, i + 1): 4 for i in range(n - 1)}), (2,) * n
        )
        d = verify_instance(inst, Budgets(max_cosets=2_000)).to_dict()
        assert d["raw"] == {"generators_after_simplify": n, "matched": True}
        assert d["verdict"] == "pass"
    # a simplify stopped by the length bound decides nothing
    d = verify_instance(thm1_fixture(), Budgets(max_relator_length=6)).to_dict()
    assert d["raw"] == {"generators_after_simplify": 8, "matched": "skipped"}
    assert d["verdict"] == "pass"
