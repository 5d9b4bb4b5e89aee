import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coxembed.words
from coxembed.words import (
    code_nf,
    commutator,
    concat,
    cyclic_reduce,
    decode,
    encode,
    free_reduce,
    invert,
    letter_key,
    power,
    relator_nf,
    word_key,
)
from oracles import orbit_rotation_inversion

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=12)


def test_docstring_examples():
    result = doctest.testmod(coxembed.words)
    assert result.failed == 0
    assert result.attempted == 5


def test_free_reduce_examples():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, 3]) == (1, 3)
    assert free_reduce([1, 2, -2, -1, 3]) == (3,)


def test_free_reduce_rejects_zero():
    with pytest.raises(ValueError):
        free_reduce([1, 0])


def test_invert_examples():
    assert invert(()) == ()
    assert invert((1, -2)) == (2, -1)
    assert invert((1, 2, 3)) == (-3, -2, -1)


def test_concat_examples():
    assert concat((1, 2), (-2, 3)) == (1, 3)
    w = (1, -2, 3)
    assert concat(w, invert(w)) == ()
    assert concat((1,), (1,)) == (1, 1)


def test_power_examples():
    assert power((1, 2), 2) == (1, 2, 1, 2)
    assert power((), 5) == ()
    assert power((1, -1, 2), 3) == (2, 2, 2)
    with pytest.raises(ValueError):
        power((1,), -1)


def test_commutator_convention():
    assert commutator((1,), (2,)) == (1, 2, -1, -2)
    assert commutator((1,), (1,)) == ()
    assert commutator((1,), (-2,)) == (1, -2, -1, 2)


def test_cyclic_reduce_examples():
    assert cyclic_reduce((-2, 1, 2)) == (1,)
    assert cyclic_reduce((1, 2, -1)) == (2,)
    assert cyclic_reduce((1, 2)) == (1, 2)


@given(raw_words)
def test_cyclic_reduce_matches_pairwise_stripping(ls):
    # reference: re-slice after each stripped end pair
    v = free_reduce(ls)
    while len(v) >= 2 and v[0] == -v[-1]:
        v = v[1:-1]
    assert cyclic_reduce(ls) == v


@given(raw_words)
def test_letter_codes_follow_letter_key(ls):
    assert decode(encode(ls)) == tuple(ls)
    assert sorted(ls, key=letter_key) == list(decode(sorted(encode(ls))))


def test_relator_nf_trivial_example():
    assert relator_nf((1, 2, 3)) == (1, 2, 3)


def test_relator_nf_klein_variants():
    # a b^-1 a^-1 b^-1 and a^-1 b a b land in one class; checked against
    # the brute-force rotation/inversion orbit.
    w1 = (1, -2, -1, -2)
    w2 = (-1, 2, 1, 2)
    assert w2 in orbit_rotation_inversion(w1)
    assert relator_nf(w1) == relator_nf(w2)


def test_relator_nf_commutator_power_variants():
    w1 = power(commutator((1,), (-2,)), 2)
    w2 = power(commutator((1,), (2,)), 2)
    assert w1 in orbit_rotation_inversion(w2)
    assert relator_nf(w1) == relator_nf(w2)


@given(raw_words)
def test_free_reduce_no_adjacent_cancellation(ls):
    w = free_reduce(ls)
    assert all(w[i] != -w[i + 1] for i in range(len(w) - 1))


@given(raw_words)
def test_free_reduce_idempotent(ls):
    w = free_reduce(ls)
    assert free_reduce(w) == w


@given(raw_words)
def test_relator_nf_matches_bruteforce_orbit_minimum(ls):
    w = cyclic_reduce(ls)
    expected = min(orbit_rotation_inversion(w), key=word_key)
    assert relator_nf(ls) == expected


def test_code_nf_matches_orbit_minimum_exhaustively():
    # every code string of length <= 5 over 3 generators, unreduced ones
    # included: the written-out 1- and 2-letter forms and both one-sided
    # rotation branches (least letter an inverse, or its inverse absent)
    for n in range(6):
        for c in itertools.product(range(6), repeat=n):
            s = "".join(map(chr, c))
            orbit = orbit_rotation_inversion(cyclic_reduce(decode(s)))
            assert code_nf(s) == min(encode(w) for w in orbit), c


def test_relator_nf_long_and_periodic_words():
    import random

    rng = random.Random(20151008)
    words = [power((1, 2), k) for k in (1, 2, 3, 50, 299, 300)]
    words += [power((1, -2, 1, 3), k) for k in (1, 7, 100)]
    words += [power((2,), 40) + (1,), (1,) * 300 + (-2,), power((3, -1), 150) + (2,)]
    words += [tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(n)) for n in (200, 400, 600)]
    for w in words:
        v = cyclic_reduce(w)
        expected = min(orbit_rotation_inversion(v), key=word_key)
        assert relator_nf(w) == expected
        assert relator_nf(invert(w)) == expected
        assert relator_nf(w[1:] + w[:1]) == expected


@given(raw_words, raw_words)
@settings(max_examples=250)
def test_relator_nf_invariant_under_conjugation_and_inversion(ls, conj):
    w = free_reduce(ls)
    u = free_reduce(conj)
    assert relator_nf(concat(u, w, invert(u))) == relator_nf(w)
    assert relator_nf(invert(w)) == relator_nf(w)


@given(raw_words, st.integers(0, 5), st.integers(0, 5))
def test_power_additive(ls, j, k):
    w = free_reduce(ls)
    assert power(w, j + k) == concat(power(w, j), power(w, k))


def test_free_reduce_preserves_group_elements():
    # substituting concrete permutations for the letters, a sequence and
    # its free reduction give the same element
    import random

    from coxembed.presentations import CoxeterMatrix, coxeter_presentation
    from coxembed.verify import regular_rep, todd_coxeter
    from oracles import eval_word_perm

    pres = coxeter_presentation(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    rep = regular_rep(todd_coxeter(pres))
    rng = random.Random(424242)
    for _ in range(200):
        seq = [rng.choice((1, -1)) * rng.randrange(1, 3) for _ in range(rng.randrange(0, 14))]
        assert eval_word_perm(seq, rep) == eval_word_perm(free_reduce(seq), rep)
