import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxembed.presentations import (
    INF,
    CoxeterMatrix,
    HomZ2n,
    build_artin_instance,
    build_artin_inversion_instance,
    build_klein_instance,
    build_prop2_instance,
    build_thm1_instance,
    parse_matrix_text,
    parse_presentation,
    serialize_presentation,
    serialize_word,
)
from coxembed.schreier import (
    commuting_letters,
    evaluated_kernel_presentation,
    image_rank,
    merge_symbols,
    raw_kernel_presentation,
    right_angled_nf,
    transversal,
)
from coxembed.verify import (
    coxeter_word_trivial,
    evaluated_matches_expected,
    expand_kernel_word,
    group_order,
    verify_instance,
    word_holds,
)
from coxembed.words import cyclic_reduce, free_reduce, invert, power, relator_nf
import coxembed.schreier as schreier
from oracles import evaluated_rewriter, reference_evaluated_kernel, regular_rep, replace, walk_rewrite
from test_presentations import _instance_sweep

ROOT = Path(__file__).resolve().parents[1]


def thm1_fixture():
    return build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}), (2, 2))


def test_transversal_rejects_a_hom_of_the_wrong_shape():
    p = parse_presentation("< a, b | a^2, b^2 >")
    for images in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="missing generator image"):
            transversal(p, HomZ2n(2, images), (0, 1))
    with pytest.raises(ValueError, match="hom does not kill every relator"):
        transversal(parse_presentation("< a, b | a^2, b^3 >"), HomZ2n(2, (1, 2)), (0, 1))
    for inst in (thm1_fixture(), build_klein_instance()):
        assert len(transversal(inst.ambient, inst.hom, inst.transversal_gens)) == 2 ** image_rank(inst.hom)


def test_image_rank():
    inst = build_thm1_instance(
        CoxeterMatrix.from_pairs(3, {(0, 1): 2, (0, 2): 2, (1, 2): 2}), (2, 2, 2)
    )
    assert image_rank(inst.hom) == 3
    assert image_rank(HomZ2n(2, (0, 0))) == 0
    assert image_rank(build_klein_instance().hom) == 2


def test_transversal_thm1():
    inst = thm1_fixture()
    t = transversal(inst.ambient, inst.hom, inst.transversal_gens)
    assert len(t) == 4
    assert set(t.values()) == {(), (1,), (2,), (1, 2)}
    assert t[0] == ()


def test_transversal_klein_restricted_and_full():
    inst = build_klein_instance()
    t = transversal(inst.ambient, inst.hom, inst.transversal_gens)
    assert set(t.values()) == {(), (1,), (3,), (1, 3)}
    # over the full alphabet, BFS finds s1 at depth 1 before r1 r2; the
    # keys come in the order the walk found them
    t_full = transversal(inst.ambient, inst.hom, range(4))
    assert list(t_full.items()) == [(0, ()), (1, (1,)), (3, (2,)), (2, (3,))]


def test_transversal_invariants():
    inst = thm1_fixture()
    t = transversal(inst.ambient, inst.hom, inst.transversal_gens)
    for v, w in t.items():
        assert inst.hom.word_image(w) == v
        for k in range(len(w)):
            assert w[:k] in t.values()
    assert len(t) == 2 ** image_rank(inst.hom)


def test_transversal_rejects_nonspanning_subset():
    inst = thm1_fixture()
    with pytest.raises(ValueError):
        transversal(inst.ambient, inst.hom, (0,))


def test_transversal_rejects_a_bad_hom_or_subset():
    with pytest.raises(ValueError, match="hom does not kill every relator"):
        transversal(parse_presentation("< a | a^3 >"), HomZ2n(1, (1,)), (0,))
    inst = thm1_fixture()
    for subset, bad in (((0, 1, 4), 4), ((-1, 0, 1), -1)):
        with pytest.raises(ValueError, match=f"generator index {bad} outside alphabet"):
            transversal(inst.ambient, inst.hom, subset)


def test_schreier_word_examples():
    # the raw symbol of (t, x) is defined by t x (rep of the target
    # coset)^-1, freely reduced; none when that is empty
    def defining(inst, t, x):
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        return {(g.coset_word, g.gen): g.defining for g in raw.table}.get((t, x), ())

    inst = thm1_fixture()
    s1 = 2
    assert defining(inst, (), s1) == (3, -1)  # s1 r1^-1
    # t x literally equal to the representative
    assert defining(inst, (1,), 1) == ()
    assert defining(build_klein_instance(), (), 1) == (2, -3, -1)  # s1 r2^-1 r1^-1


def commuting_graphs():
    """Instances whose commuting graphs the normal form is tested on."""
    return [
        thm1_fixture(),
        build_klein_instance(),
        build_artin_inversion_instance(CoxeterMatrix.from_pairs(3, {(0, 1): 3, (1, 2): 3})),
        build_prop2_instance(CoxeterMatrix.from_pairs(3, {(0, 1): 3, (0, 2): 2, (1, 2): 4}), (2, 4, 6)),
    ]


def nf_of(inst):
    near = commuting_letters(inst.ambient.rank, inst.commuting)
    return lambda w: right_angled_nf(near, w)


def random_word(rng, rank, max_len=12):
    return tuple(rng.choice((1, -1)) * rng.randrange(1, rank + 1) for _ in range(rng.randrange(0, max_len)))


def rule_move(rng, inst, w):
    """``w`` after one random move that keeps its element: insert ``g g``
    or ``g g^-1`` anywhere, or swap two adjacent commuting letters."""
    w = list(w)
    pairs = [
        i for i in range(len(w) - 1) if tuple(sorted((abs(w[i]) - 1, abs(w[i + 1]) - 1))) in inst.commuting
    ]
    if pairs and rng.random() < 0.6:
        i = rng.choice(pairs)
        w[i], w[i + 1] = w[i + 1], w[i]
    else:
        g = rng.randrange(1, inst.ambient.rank + 1)
        i = rng.randrange(len(w) + 1)
        w[i:i] = [g, rng.choice((g, -g))]
    return tuple(w)


def test_right_angled_nf_examples():
    nf = nf_of(thm1_fixture())
    # r1 r2 r1^-1 -> r2
    assert nf((1, 2, -1)) == (2,)
    # r1 r2 s1 r2^-1 -> r1 s1  (r2 commutes past s1 and cancels)
    assert nf((1, 2, 3, -2)) == (1, 3)
    assert nf(()) == ()
    # s1 r1 r2 and r2 s1 r1 are one element (r2 commutes with r1 and s1):
    # one form, the least reduced word
    assert nf((3, 1, 2)) == nf((2, 3, 1)) == (2, 3, 1)


@given(st.lists(st.integers(-4, 4).filter(lambda x: x != 0), max_size=14))
@settings(max_examples=300)
def test_right_angled_nf_idempotent_and_nonincreasing(ls):
    nf = nf_of(thm1_fixture())
    w = free_reduce(ls)
    n = nf(w)
    assert len(n) <= len(w)
    assert nf(n) == n


def test_right_angled_nf_thousand_words_per_graph():
    rng = random.Random(271828)
    for inst in commuting_graphs():
        nf = nf_of(inst)
        for _ in range(1000):
            w = free_reduce(random_word(rng, inst.ambient.rank, 14))
            n = nf(w)
            assert len(n) <= len(w)
            assert min(n, default=1) > 0
            assert nf(n) == n


def test_right_angled_nf_decides_the_chamber_word_problem():
    # nf(u) == nf(v) exactly when u v^-1 is trivial in the right-angled
    # Coxeter group of the commuting pairs, decided on its Tits cone; v is
    # u after rule moves, u with one letter changed, or unrelated
    rng = random.Random(20261019)
    for inst in commuting_graphs():
        n = inst.ambient.rank
        nf = nf_of(inst)
        matrix = CoxeterMatrix.from_pairs(n, {pair: 2 for pair in inst.commuting}, default=INF)
        for _ in range(1500):
            u = random_word(rng, n)
            kind = rng.randrange(3)
            if kind == 0:
                v = u
                for _ in range(rng.randrange(1, 6)):
                    v = rule_move(rng, inst, v)
            elif kind == 1 and u:
                i = rng.randrange(len(u))
                v = u[:i] + (rng.randrange(1, n + 1),) + u[i + 1:]
            else:
                v = random_word(rng, n)
            assert (nf(u) == nf(v)) == coxeter_word_trivial(matrix, u + invert(v)), (inst.family, u, v)


def test_rule_moves_keep_the_right_angled_nf():
    rng = random.Random(161803)
    for inst in commuting_graphs():
        nf = nf_of(inst)
        for _ in range(500):
            w = random_word(rng, inst.ambient.rank)
            v = w
            for _ in range(rng.randrange(1, 8)):
                v = rule_move(rng, inst, v)
            assert nf(v) == nf(w), (inst.family, w, v)


def test_raw_kernel_counts_thm1():
    inst = thm1_fixture()
    kp = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    assert kp.presentation.rank <= 16
    assert len(kp.presentation.relators) == 40


def test_raw_kernel_free_group_index_two():
    p = parse_presentation("< a | >")
    kp = raw_kernel_presentation(p, HomZ2n(1, (1,)), (0,))
    assert kp.presentation.rank == 1
    assert kp.presentation.relators == ()
    assert kp.table[0].defining == (1, 1)  # a a


def test_raw_symbols_lie_in_kernel():
    inst = thm1_fixture()
    kp = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    for g in kp.table:
        assert inst.hom.word_image(g.defining) == 0


def raw_relator_origins(inst):
    """The raw kernel of ``inst`` and, per relator, the (coset, its
    representative, ambient relator) it was read from: every pair in
    transversal order, those whose walk is empty left out."""
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    t = transversal(inst.ambient, inst.hom, inst.transversal_gens)
    origins = [
        (v, rep, r) for v, rep in t.items() for r in inst.ambient.relators
        if walk_rewrite(raw.table, inst.hom.images, r, v)
    ]
    assert len(origins) == len(raw.presentation.relators)
    return raw, origins


def test_raw_rewrite_is_exact_in_free_group():
    # expanded through the defining words, each raw relator read from the
    # coset of rep is rep r rep^-1 in the free group, and it is cyclically
    # reduced as it stands
    for inst in _instance_sweep():
        raw, origins = raw_relator_origins(inst)
        defining = [g.defining for g in raw.table]
        for img, (_, rep, r) in zip(raw.presentation.relators, origins):
            assert expand_kernel_word(img, defining) == free_reduce(rep + r + invert(rep))
            assert cyclic_reduce(img) == img


def test_raw_relators_match_the_unreduced_walk():
    # each raw relator is the independent one-word rewrite of its ambient
    # relator from its coset
    for inst in _instance_sweep():
        raw, origins = raw_relator_origins(inst)
        for img, (v, _, r) in zip(raw.presentation.relators, origins):
            assert img == walk_rewrite(raw.table, inst.hom.images, r, v)


def test_evaluated_kernel_builds_no_raw_kernel(monkeypatch):
    import coxembed.schreier as schreier

    inst = thm1_fixture()
    expected = reference_evaluated_kernel(
        inst, raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    )

    def refuse(*args):
        raise AssertionError("raw kernel built")

    monkeypatch.setattr(schreier, "raw_kernel_presentation", refuse)
    assert evaluated_kernel_presentation(inst) == expected


def test_coset0_kernel_checks_no_hom_again(monkeypatch):
    # EmbeddingInstance has checked that the hom kills every relator
    for inst in (thm1_fixture(), build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (4, 4))):
        expected = evaluated_kernel_presentation(inst)
        calls = []
        word_image = HomZ2n.word_image
        monkeypatch.setattr(HomZ2n, "word_image", lambda *a: calls.append(a) or word_image(*a))
        assert schreier._coset0_kernel(inst) is not None
        assert evaluated_kernel_presentation(inst) == expected
        assert calls == []
        monkeypatch.undo()


def test_evaluated_kernel_equals_substitution_oracle_on_the_instance_sweep():
    # the kernel read from coset 0 and the coset walk, against the raw
    # relators with each symbol substituted
    for inst in _instance_sweep():
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        ref = reference_evaluated_kernel(inst, raw)
        assert schreier._coset0_kernel(inst) is not None, inst.family
        for kp in (evaluated_kernel_presentation(inst), schreier._walked_kernel(inst)):
            assert kp.presentation.gens == ref.presentation.gens, inst.family
            assert kp.presentation.relators == ref.presentation.relators, inst.family
            assert kp.table == ref.table, inst.family


def _takes_the_walk(inst):
    # an instance that misses the coset-0 premise is walked from the
    # cosets, and still equals the substitution oracle
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    assert schreier._coset0_kernel(inst) is None
    assert evaluated_kernel_presentation(inst) == reference_evaluated_kernel(inst, raw)


def test_coset0_premise_needs_the_transversal_on_the_basis():
    # r2 maps to 0b11, so the transversal generators span Z_2^2 but are
    # not its basis; klein's r1, s1, r2 are one generator too many
    plain = thm1_fixture()
    _takes_the_walk(replace(plain, hom=HomZ2n(2, (0b01, 0b11, 0b01, 0b11))))
    _takes_the_walk(replace(build_klein_instance(), transversal_gens=(0, 1, 2)))


def test_coset0_premise_needs_commuting_transversal_generators():
    # s1 and s2 map onto the basis, but their label is 4
    _takes_the_walk(replace(thm1_fixture(), transversal_gens=(2, 3)))


def test_coset0_premise_needs_distinct_nontrivial_expected_words():
    # s1 r1 and r1 s1 are inverse, s1 r1 twice is a repeat, and s1 s1 is
    # trivial in the right-angled group
    plain = thm1_fixture()
    s1r1 = plain.expected_words[0]
    for words in ((s1r1, invert(s1r1)), (s1r1, s1r1), (s1r1, (3, 3))):
        _takes_the_walk(replace(plain, expected_words=words))


def test_coset0_premise_needs_conjugation_to_permute_expected_words():
    # r1 (s2 r2 s1 r1) r1 is neither expected word nor an inverse of one
    plain = thm1_fixture()
    s1r1, s2r2 = plain.expected_words
    _takes_the_walk(replace(plain, expected_words=(s1r1, s2r2 + s1r1)))


def test_coset0_premise_needs_expected_coset0_symbols():
    # conjugation permutes s1 r1 and (s2 r2)^2 up to inversion, but the
    # coset-0 symbol s2 r2 is neither
    plain = thm1_fixture()
    s1r1, s2r2 = plain.expected_words
    _takes_the_walk(replace(plain, expected_words=(s1r1, s2r2 * 2)))


def test_evaluated_thm1():
    inst = thm1_fixture()
    kp = evaluated_kernel_presentation(inst)
    assert kp.presentation.gens == ("a1", "a2")
    words = [serialize_word(g.defining, inst.ambient.gens) for g in kp.table]
    assert words == ["s1 r1", "s2 r2"]
    assert evaluated_matches_expected(kp.presentation, inst.expected_kernel)


def test_evaluated_thm1_with_inverted_expected_words():
    # each raw symbol's word is the inverse of an expected word, so the
    # merged symbol takes the expected word and the sign -1
    plain = thm1_fixture()
    inst = replace(plain, expected_words=tuple(invert(w) for w in plain.expected_words))
    kp = evaluated_kernel_presentation(inst)
    assert kp.presentation.gens == ("a1", "a2")
    words = [serialize_word(g.defining, inst.ambient.gens) for g in kp.table]
    assert words == ["r1 s1", "r2 s2"]
    assert verify_instance(inst).to_dict() == verify_instance(plain).to_dict()


def test_evaluated_prop2():
    inst = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (4, 4))
    kp = evaluated_kernel_presentation(inst)
    assert kp.presentation.gens == ("s1", "s2", "t1", "t2")
    words = {g.name: serialize_word(g.defining, inst.ambient.gens) for g in kp.table}
    assert words == {"s1": "s1", "s2": "s2", "t1": "r1 s1 r1", "t2": "r2 s2 r2"}
    assert evaluated_matches_expected(kp.presentation, inst.expected_kernel)
    nf_set = {relator_nf(r) for r in kp.presentation.relators}
    st_power = power((1, 3), 2)  # (s1 t1)^2 under kernel numbering
    assert relator_nf(st_power) in nf_set


def test_evaluated_prop2_rank_three():
    inst = build_prop2_instance(
        CoxeterMatrix.from_pairs(3, {(0, 1): 3, (0, 2): 2, (1, 2): 4}), (2, 4, 6)
    )
    kp = evaluated_kernel_presentation(inst)
    assert kp.presentation.gens == ("s1", "s2", "s3", "t1", "t2", "t3")
    assert evaluated_matches_expected(kp.presentation, inst.expected_kernel)


def test_evaluated_artin_rank_three_right_angled():
    inst = build_artin_instance(
        CoxeterMatrix.from_pairs(3, {(0, 1): 2, (0, 2): 2, (1, 2): 2})
    )
    kp = evaluated_kernel_presentation(inst)
    assert evaluated_matches_expected(kp.presentation, inst.expected_kernel)


def test_raw_kernel_presentation_round_trips_through_dsl():
    inst = thm1_fixture()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    text = serialize_presentation(raw.presentation)
    assert parse_presentation(text) == raw.presentation


def test_evaluated_klein():
    inst = build_klein_instance()
    kp = evaluated_kernel_presentation(inst)
    assert kp.presentation.gens == ("a", "b")
    words = [serialize_word(g.defining, inst.ambient.gens) for g in kp.table]
    assert words == ["s1 r1 r2", "s2 r2"]
    assert len(kp.presentation.relators) == 1
    assert relator_nf(kp.presentation.relators[0]) == relator_nf((1, -2, -1, -2))


def test_evaluated_artin_classes():
    # For label 2 the braid relator class is the only one.  For labels >= 3
    # the transversal elements containing r_i flip a_i, so a second,
    # sign-flipped braid class genuinely appears (it is not a consequence:
    # adding it collapses finite quotients, see test_verify).
    inst2 = build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 2}))
    kp2 = evaluated_kernel_presentation(inst2)
    assert {relator_nf(r) for r in kp2.presentation.relators} == {
        relator_nf(inst2.expected_kernel.relators[0])
    }

    inst3 = build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    kp3 = evaluated_kernel_presentation(inst3)
    classes = {relator_nf(r) for r in kp3.presentation.relators}
    braid = relator_nf(inst3.expected_kernel.relators[0])
    flipped = relator_nf((-1, 2, -1, -2, 1, -2))  # braid relator in a1^-1, a2
    assert classes == {braid, flipped}


def test_reidemeister_rewrite_examples():
    inst = build_thm1_instance(CoxeterMatrix.from_rows([[1]]), (3,))
    _, rewrite = evaluated_rewriter(inst)
    s1, r1 = 2, 1  # letters
    assert rewrite(power((s1, r1), 3)) == (1, 1, 1)
    assert rewrite((s1, s1)) == ()
    with pytest.raises(ValueError):
        rewrite((s1,))

    klein = build_klein_instance()
    _, rewrite_k = evaluated_rewriter(klein)
    s1, s2, r1, r2 = 2, 4, 1, 3
    assert rewrite_k(power((s1, s2), 2)) == (1, -2, -1, -2)
    assert rewrite_k(power((s1, r2), 2)) == ()


def test_merge_symbols_images():
    # every raw letter maps to 0 or one evaluated letter, its inverse to
    # the inverse, and its defining word equals its image's in the ambient
    # group
    for inst in (thm1_fixture(), build_klein_instance(),
                 build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))):
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        table, letters = merge_symbols(inst, raw.table)
        nf = nf_of(inst)
        assert sorted(letters) == list(range(-len(raw.table), len(raw.table) + 1))
        assert letters[0] == 0
        assert tuple(g.name for g in table) == evaluated_kernel_presentation(inst).presentation.gens
        defining = [g.defining for g in table]
        for k, g in enumerate(raw.table, 1):
            m = letters[k]
            assert letters[-k] == -m and abs(m) <= len(table)
            assert nf(g.defining) == nf(expand_kernel_word((m,) if m else (), defining))


def finite_fixtures():
    return [
        thm1_fixture(),
        build_thm1_instance(CoxeterMatrix.from_rows([[1]]), (3,)),
        build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,)),
        build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2)),
    ]


def random_kernel_words(inst, count, rng):
    words = []
    while len(words) < count:
        w = free_reduce(random_word(rng, inst.ambient.rank))
        if inst.hom.word_image(w) == 0:
            words.append(w)
    return words


def test_rewrite_soundness_in_regular_rep():
    rng = random.Random(20240817)
    for inst in finite_fixtures():
        rep = regular_rep(inst.ambient)
        table, rewrite = evaluated_rewriter(inst)
        for w in random_kernel_words(inst, 100, rng):
            expanded = expand_kernel_word(rewrite(w), [g.defining for g in table])
            assert word_holds(rep, free_reduce(expanded + invert(w)))


def test_raw_and_evaluated_agree_on_order():
    for inst in finite_fixtures():
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        ev = evaluated_kernel_presentation(inst)
        assert group_order(raw.presentation) == group_order(ev.presentation)


def test_raw_and_evaluated_agree_on_abelianization_for_artin():
    # the kernel is infinite, so the cross-check is the abelianization:
    # both modes present the same proper quotient of the Artin group
    from coxembed.tietze import simplify
    from coxembed.verify import AbelianInvariants, abelianization

    inst = build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    simplified, _ = simplify(raw.presentation)
    ev = evaluated_kernel_presentation(inst)
    assert abelianization(simplified) == abelianization(ev.presentation)
    assert abelianization(ev.presentation) == AbelianInvariants(0, (2,))


def _kernel_pin_cases():
    """Each fixture Coxeter matrix under every family it fits, klein, the
    label-2 artin pair (labels 3 and 4 are fixtures), a rank-3 prop2 chain
    and a rank-4 thm1 chain."""
    cases = [("klein", build_klein_instance())]
    for name in ("m2x2_3", "m2x2_4", "m3x3_right_angled"):
        m = CoxeterMatrix.from_rows(parse_matrix_text((ROOT / "scripts/fixtures" / f"{name}.txt").read_text()))
        for p in (2, 3, 4, INF):
            if p != 3:
                cases.append((f"prop2-{name}-{p}", build_prop2_instance(m, (p,) * m.n)))
            if m.is_even:
                cases.append((f"thm1-{name}-{p}", build_thm1_instance(m, (p,) * m.n)))
        cases.append((f"artin-{name}", build_artin_instance(m)))
        cases.append((f"artin-inversion-{name}", build_artin_inversion_instance(m)))
    m2 = CoxeterMatrix.from_pairs(2, {(0, 1): 2})
    cases.append(("artin-2", build_artin_instance(m2)))
    cases.append(("artin-inversion-2", build_artin_inversion_instance(m2)))
    chain3 = CoxeterMatrix.from_pairs(3, {(0, 1): 3, (1, 2): 3})
    cases.append(("prop2-chain3", build_prop2_instance(chain3, (4, 4, 4))))
    chain4 = CoxeterMatrix.from_pairs(4, {(0, 1): 4, (1, 2): 4, (2, 3): 4})
    cases.append(("thm1-chain4", build_thm1_instance(chain4, (2, 2, 2, 2))))
    return cases


def _kernel_digest(inst):
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    ev = evaluated_kernel_presentation(inst)
    text = repr([(str(kp.presentation), kp.table_rows(inst.ambient)) for kp in (raw, ev)])
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the raw and evaluated kernels (presentation text and table rows)
KERNEL_PINS = {
    "klein": "0eaf0b3bdce0e14bcc31a85166a9b0fcc5de275473461f6f3429ea6e7c6fab6d",
    "prop2-m2x2_3-2": "a1f34fa38cddaf4f45c257a9fd0caa7c58887223d80835d3ecc2fa0dc607574e",
    "prop2-m2x2_3-4": "667dc22857958f2511524e6a2299c6f00a7dc0ae2ee409f9c3af011cd5038f5f",
    "prop2-m2x2_3-inf": "680573668bd37aa401e0f97f0ff0409a8907258dedc081a8f829838d7869a091",
    "artin-m2x2_3": "ed1e560c1b3e3cf046f96cc7c1723fe8feec07fa90d19899178c05c8d1b3bcc7",
    "artin-inversion-m2x2_3": "71c0de2b53a358faaf3c56cea9114f9b3ee30025f9e49cdca51d6dd8e814c6fc",
    "prop2-m2x2_4-2": "fb13a1f652dda92cab4f195cf7d3040a71e92a99adfa94423320ea591c191297",
    "thm1-m2x2_4-2": "dc42f74b47fd9b9770ad19a09aeb80ca26844c20862543de6fa19375d355ccdf",
    "thm1-m2x2_4-3": "a4262eb0b1f8a9b39815c1a472fb635fdd9e4ec591178e593e2a0763588dd6ca",
    "prop2-m2x2_4-4": "5d80a8dd06397463a6360603211bbaf07106ecbba4c974fdb86ac5a23e8ac343",
    "thm1-m2x2_4-4": "52bfea49735f88e95af599417345be4182b2bdd1f911171acf9429bb87562437",
    "prop2-m2x2_4-inf": "9c5b582986ec7dcabb81d8526954c4f7c3ac03247de83db484ba203634a686b0",
    "thm1-m2x2_4-inf": "d407c0b59ee768f475a22fb8322263ca707d6a5353141a1741cad93f0ad99fae",
    "artin-m2x2_4": "6b198ba9296a10e8f34265d89ad88815d253cecf2159b2fb5cad183fd3228d6b",
    "artin-inversion-m2x2_4": "3fe91bd23668c45680cab35bdf78095d4c63f72b70feb7eb6ee11985b0eb19d6",
    "prop2-m3x3_right_angled-2": "0a409dfe44fc43bef2dacf9c580c9902ae3aa6a61a2e4ec6eafb762df22c9e16",
    "thm1-m3x3_right_angled-2": "98d2644eb2a88f5573b7ca08acb30a5d4da80c038cd26722c919392182da29e9",
    "thm1-m3x3_right_angled-3": "19a3d9a553ea937dac0182298083b2ddd52feef470ed7ee8dbc3985378f72ef1",
    "prop2-m3x3_right_angled-4": "d1188b437082d7cae32e2bae5dbcb9c9e3b78956a2e098d04833283bd2e61db4",
    "thm1-m3x3_right_angled-4": "9250d0d6ac17396f2c77c92d93cadbf0d0a2f9f9bf2fb0d6b6aa146fdad7fc96",
    "prop2-m3x3_right_angled-inf": "ff04bacf6b2cbf52ac802f47a21a72c94698661b1de30063af4f0128adac6297",
    "thm1-m3x3_right_angled-inf": "f66e404edfbd356273e25f027071e12fdc34c235c4e9066a2e2d4cf7efe49a98",
    "artin-m3x3_right_angled": "2b78db9939dc7dff693a93cdec0fc215703028733ea96520c6c68cb87477416f",
    "artin-inversion-m3x3_right_angled": "438fcd0761b6c1ea1865e549c21b5ce451c9a19d1358c356428148942e6103fc",
    "artin-2": "30d95fa7597c766c4fdc3775cd2a67763027a7f301b7d3a86929186cb758bfaf",
    "artin-inversion-2": "64033e779fe28d0254aef849cf4f2cc3b96f7bb7a7b174e09218872f4d41f28a",
    "prop2-chain3": "abf5f14433f29223c18ef5256927a887b5324b34866f7f5246c469d41e7f23bd",
    "thm1-chain4": "04fc03eeb77f58b553fc33b08133b42f25c7316cc85dd49204e671fada7267a0",
}


def test_kernel_pins():
    digests = {name: _kernel_digest(inst) for name, inst in _kernel_pin_cases()}
    assert digests == KERNEL_PINS
