"""Acceptance suite: one test per criterion, exact values and tolerances
pinned, with independent oracles where derivation is required."""

import itertools
import random

import pytest

from coxembed.presentations import (
    INF,
    CoxeterMatrix,
    artin_presentation,
    build_artin_inversion_instance,
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
    coxeter_presentation,
    serialize_word,
)
from coxembed.schreier import evaluated_kernel_presentation, raw_kernel_presentation, transversal
from coxembed.tietze import simplify
from coxembed.verify import (
    AbelianInvariants,
    abelianization,
    evaluated_matches_expected,
    expand_kernel_word,
    group_order,
    match_presentations,
    todd_coxeter,
    verify_instance,
    word_holds,
)
from coxembed.words import (
    commutator,
    concat,
    cyclic_reduce,
    free_reduce,
    invert,
    power,
    relator_nf,
)
from oracles import (
    compose,
    dihedral_squared_times_klein_gens,
    eval_word_perm,
    evaluated_rewriter,
    minor_gcd_diagonal,
    orbit_rotation_inversion,
    perm_closure,
    regular_rep,
    smith_normal_form,
    word_key,
)

MAX_COSETS = 50_000


def thm1_fixture():
    return build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}), (2, 2))


def test_criterion_1_thm1_fixture():
    inst = thm1_fixture()
    kp = evaluated_kernel_presentation(inst)
    assert kp.presentation.rank == 2
    defining = [serialize_word(g.defining, inst.ambient.gens) for g in kp.table]
    assert defining == ["s1 r1", "s2 r2"]
    expected_nf = sorted(
        relator_nf(r)
        for r in (
            power(commutator((1,), (2,)), 2),
            power((1,), 2),
            power((2,), 2),
        )
    )
    assert sorted(relator_nf(r) for r in kp.presentation.relators) == expected_nf

    # independent oracle: explicit permutation realization of D4 x Z2 x Z2
    amb_gens = dihedral_squared_times_klein_gens()
    for r in inst.ambient.relators:
        assert eval_word_perm(r, amb_gens) == tuple(range(8))
    assert perm_closure(list(amb_gens)) == 32
    a1 = compose(amb_gens[2], amb_gens[0])
    a2 = compose(amb_gens[3], amb_gens[1])
    assert perm_closure([a1, a2]) == 8

    assert group_order(inst.ambient, MAX_COSETS) == 32
    assert group_order(inst.expected_kernel, MAX_COSETS) == 8
    index_tab = todd_coxeter(inst.ambient, inst.expected_words, MAX_COSETS)
    assert index_tab.complete and index_tab.num_cosets == 4 == 2**2
    assert 32 == 2**2 * 8


def _sweep_cases():
    vals_m = (2, 4, 6, INF)
    vals_p = (2, 3, 4, INF)
    cases = []
    for p1 in vals_p:
        cases.append((1, (), (p1,)))
    for m12 in vals_m:
        for p in itertools.product(vals_p, repeat=2):
            cases.append((2, (m12,), p))
    grid3 = [
        (ms, p)
        for ms in itertools.product(vals_m, repeat=3)
        for p in itertools.product(vals_p, repeat=3)
    ]
    for ms, p in grid3[::29]:
        cases.append((3, ms, p))
    return cases


def _canonical_key(n, matrix, orders):
    best = None
    for sigma in itertools.permutations(range(n)):
        key = (
            tuple(
                matrix.entries[sigma[i]][sigma[j]]
                for i in range(n)
                for j in range(i + 1, n)
            ),
            tuple(orders[sigma[i]] for i in range(n)),
        )
        if best is None or key < best:
            best = key
    return (n, best)


def test_criterion_2_thm1_property_sweep():
    cases = _sweep_cases()
    assert len(cases) >= 200
    pair_index = {1: (), 2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}
    order_cache = {}
    for n, ms, orders in cases:
        labels = dict(zip(pair_index[n], ms))
        matrix = CoxeterMatrix.from_pairs(n, labels)
        inst = build_thm1_instance(matrix, orders)
        kp = evaluated_kernel_presentation(inst)
        assert evaluated_matches_expected(kp.presentation, inst.expected_kernel), (
            n,
            ms,
            orders,
        )
        key = _canonical_key(n, matrix, orders)
        if key not in order_cache:
            ambient_order = group_order(inst.ambient, MAX_COSETS)
            kernel_order = (
                group_order(inst.expected_kernel, MAX_COSETS)
                if ambient_order is not None
                else None
            )
            order_cache[key] = (ambient_order, kernel_order)
        ambient_order, kernel_order = order_cache[key]
        if ambient_order is not None and kernel_order is not None:
            assert ambient_order == 2**n * kernel_order, (n, ms, orders)


def test_criterion_3_raw_mode_anchor():
    inst = thm1_fixture()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    assert group_order(raw.presentation, MAX_COSETS) == 8
    simplified, _ = simplify(raw.presentation)
    assert simplified.rank == 2
    assert match_presentations(simplified, inst.expected_kernel) is not None
    assert group_order(simplified, MAX_COSETS) == 8
    assert group_order(inst.expected_kernel, MAX_COSETS) == 8


def test_criterion_4_prop2():
    # (a) affine parameters: ambient is the chain with labels 4, 3, 4
    inst = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (4, 4))
    chain = coxeter_presentation(
        CoxeterMatrix.from_pairs(4, {(0, 2): 4, (2, 3): 3, (3, 1): 4})
    ).rename(("r1", "r2", "s1", "s2"))
    assert sorted(relator_nf(r) for r in inst.ambient.relators) == sorted(
        relator_nf(r) for r in chain.relators
    )
    kp = evaluated_kernel_presentation(inst)
    four_cycle = coxeter_presentation(
        CoxeterMatrix.from_pairs(
            4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3, (0, 2): 2, (1, 3): 2}
        )
    )
    assert match_presentations(kp.presentation, four_cycle) is not None
    trans = transversal(inst.ambient, inst.hom, inst.transversal_gens)
    assert len(trans) == 4 == 2**2
    assert todd_coxeter(inst.ambient, (), 20_000).status == "budget-exceeded"

    # (b) finite variant
    inst_fin = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2))
    assert group_order(inst_fin.ambient, MAX_COSETS) == 24
    assert group_order(inst_fin.expected_kernel, MAX_COSETS) == 6
    index_tab = todd_coxeter(inst_fin.ambient, inst_fin.expected_words, MAX_COSETS)
    assert index_tab.complete and index_tab.num_cosets == 4


def test_criterion_5_klein_bottle():
    inst = build_klein_instance()
    kp = evaluated_kernel_presentation(inst)
    classes = {relator_nf(r) for r in kp.presentation.relators}
    assert classes == {relator_nf((-1, 2, 1, 2))}  # a^-1 b a b
    _, rewrite = evaluated_rewriter(inst)
    s1, r1, s2, r2 = 2, 1, 4, 3
    assert rewrite(power((s1, r2), 2)) == ()
    assert rewrite(power((s2, r1), 2)) == ()
    assert abelianization(kp.presentation) == AbelianInvariants(1, (2,))


# A(I_2(m)) has one relator, the braid relator with ceil(m/2) a's and
# floor(m/2) b's in each block, so its exponent-sum row is
# (m mod 2, -(m mod 2)): the abelianization is Z for odd m (a = b) and Z^2
# for even m.  At label 4, abab(baba)^-1 has zero exponent sums.
@pytest.mark.parametrize(
    "label,expected_ab",
    [(2, AbelianInvariants(2, ())), (3, AbelianInvariants(1, ())), (4, AbelianInvariants(2, ()))],
)
def test_criterion_6_artin(label, expected_ab):
    matrix = CoxeterMatrix.from_pairs(2, {(0, 1): label})
    inst = build_artin_inversion_instance(matrix)
    kp = evaluated_kernel_presentation(inst)
    defining = [serialize_word(g.defining, inst.ambient.gens) for g in kp.table]
    assert defining == ["s1 r", "s2 r"]
    braid_class = relator_nf(
        concat(
            tuple(1 if k % 2 == 0 else 2 for k in range(label)),
            invert(tuple(2 if k % 2 == 0 else 1 for k in range(label))),
        )
    )
    assert {relator_nf(r) for r in kp.presentation.relators} == {braid_class}
    assert abelianization(kp.presentation) == expected_ab
    assert verify_instance(inst).verdict == "pass"

    # independent oracle: exponent sums of the Artin presentation and their
    # Smith diagonal via minor gcds
    artin = artin_presentation(matrix)
    rows = []
    for r in artin.relators:
        row = [0] * artin.rank
        for l in r:
            row[abs(l) - 1] += 1 if l > 0 else -1
        rows.append(row)
    assert rows == [[label % 2, -(label % 2)]]
    diag = minor_gcd_diagonal(rows)
    nonzero = [d for d in diag if d]
    oracle_ab = AbelianInvariants(artin.rank - len(nonzero), tuple(d for d in nonzero if d > 1))
    assert oracle_ab == expected_ab == abelianization(kp.presentation)


def test_criterion_7_raag_remark():
    matrix = CoxeterMatrix.from_pairs(3, {(0, 1): 2, (0, 2): INF, (1, 2): 2})
    inst = build_thm1_instance(matrix, (INF, INF, INF))
    for r in inst.ambient.relators:
        assert len(r) in (2, 4)  # right-angled: squares and (xy)^2 only
    kp = evaluated_kernel_presentation(inst)
    expected = {
        relator_nf(commutator((1,), (2,))),
        relator_nf(commutator((2,), (3,))),
    }
    assert {relator_nf(r) for r in kp.presentation.relators} == expected


def test_criterion_8_engine_properties():
    # Todd-Coxeter against closed-form orders
    for m in range(2, 7):
        pres = coxeter_presentation(CoxeterMatrix.from_pairs(2, {(0, 1): m}))
        assert group_order(pres, MAX_COSETS) == 2 * m
    a3 = coxeter_presentation(CoxeterMatrix.from_pairs(3, {(0, 1): 3, (1, 2): 3}))
    assert group_order(a3, MAX_COSETS) == 24

    # Smith normal form against the minor-gcd characterization
    rng = random.Random(1729)
    for _ in range(100):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        assert smith_normal_form(rows) == minor_gcd_diagonal(rows)

    # relator normal form under random perturbations
    rng = random.Random(8128)
    checked = 0
    while checked < 1000:
        w = free_reduce(
            tuple(rng.choice((1, -1)) * rng.randrange(1, 5) for _ in range(rng.randrange(1, 12)))
        )
        base = relator_nf(w)
        kind = rng.randrange(3)
        if kind == 0:
            v = cyclic_reduce(w)
            if not v:
                continue
            k = rng.randrange(len(v))
            perturbed = v[k:] + v[:k]
        elif kind == 1:
            perturbed = invert(w)
        else:
            u = free_reduce(
                tuple(rng.choice((1, -1)) * rng.randrange(1, 5) for _ in range(rng.randrange(0, 6)))
            )
            perturbed = concat(u, w, invert(u))
        assert relator_nf(perturbed) == base
        assert base in orbit_rotation_inversion(cyclic_reduce(w))
        assert base == min(orbit_rotation_inversion(cyclic_reduce(w)), key=word_key)
        checked += 1

    # rewrite soundness via the regular representation, per finite fixture
    rng = random.Random(65537)
    fixtures = [
        thm1_fixture(),
        build_thm1_instance(CoxeterMatrix.from_rows([[1]]), (3,)),
        build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,)),
        build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2)),
    ]
    for inst in fixtures:
        rep = regular_rep(inst.ambient, MAX_COSETS)
        table, rewrite = evaluated_rewriter(inst)
        defining = [g.defining for g in table]
        count = 0
        while count < 100:
            length = rng.randrange(0, 12)
            w = free_reduce(
                tuple(
                    rng.choice((1, -1)) * rng.randrange(1, inst.ambient.rank + 1)
                    for _ in range(length)
                )
            )
            if inst.hom.word_image(w) != 0:
                continue
            expanded = expand_kernel_word(rewrite(w), defining)
            assert word_holds(rep, free_reduce(expanded + invert(w)))
            count += 1
