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
    letter,
    power,
    relator_nf,
    rotation_nf,
)
from oracles import letter_key, orbit_rotation_inversion, word_key

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


def test_letter_rejects_a_negative_index():
    assert (letter(0), letter(2)) == (1, 3)
    with pytest.raises(ValueError, match="generator index must be >= 0"):
        letter(-1)


def test_encode_rejects_zero():
    with pytest.raises(ValueError, match="0 is not a letter"):
        encode((1, 0))


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


@given(st.lists(letters, max_size=40))
@settings(max_examples=300)
def test_rotation_nf_is_code_nf_on_cyclically_reduced_words(ls):
    # simplify loads a presentation's relators, which are cyclically
    # reduced and nonempty, with rotation_nf alone
    w = cyclic_reduce(ls)
    if w:
        nf = rotation_nf(encode(w))
        assert nf == code_nf(encode(w)) == min(map(encode, orbit_rotation_inversion(w)))
    assert decode(code_nf(encode(ls))) == relator_nf(ls)


def test_relator_nf_long_and_periodic_words():
    import random

    rng = random.Random(20151008)
    words = [power((1, 2), k) for k in (1, 2, 3, 50, 299, 300)]
    words += [power((1, -2, 1, 3), k) for k in (1, 7, 100)]
    words += [power((2,), 40) + (1,), (1,) * 300 + (-2,), power((3, -1), 150) + (2,)]
    words += [tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(n)) for n in (200, 400, 600)]
    # proper powers: a root whose least letter is an inverse letter, roots
    # holding their least letter and its inverse, a root that is a power
    words += [power((-1, 2, -3), 4), power((1, 2, -1, 3), 3), power((1, 2, -1, 3, 1, -2, -1, -3), 2)]
    words += [power(power((1, 2, -1, -3), 2), 3), power(power((-2, 1), 3), 5)]
    # an aperiodic root past _FEW letters whose least letter is dense
    # enough for the Duval scan, raised to a power
    root = tuple(rng.choice((1, 1, 2, -3)) for _ in range(300))
    assert all(root[d:] + root[:d] != root for d in range(1, len(root))) and root.count(1) > len(root) // 4 + 1
    assert len(root) > coxembed.words._FEW
    words += [power(root, 3)]
    for w in words:
        v = cyclic_reduce(w)
        expected = min(orbit_rotation_inversion(v), key=word_key)
        assert relator_nf(w) == expected
        assert relator_nf(invert(w)) == expected
        assert relator_nf(w[1:] + w[:1]) == expected


@given(st.lists(letters, min_size=1, max_size=6), st.integers(2, 6))
@settings(max_examples=300)
def test_rotation_nf_of_a_power_is_the_power_of_the_root_form(ls, k):
    u = cyclic_reduce(ls)
    if not u:
        return
    c = encode(power(u, k))
    expected = min(map(encode, orbit_rotation_inversion(power(u, k))))
    assert rotation_nf(c) == expected == rotation_nf(encode(u)) * k


def test_rotation_nf_of_a_power_rotates_only_its_root(monkeypatch):
    # (a b)^4's least letter fills a quarter of the word plus one letter,
    # which once sent it to the Duval scan; its root (a b) is written out
    calls = []
    least_rotation = coxembed.words._least_rotation
    monkeypatch.setattr(coxembed.words, "_least_rotation", lambda *a: calls.append(a) or least_rotation(*a))
    assert rotation_nf(encode(power((1, 2), 4))) == encode((1, 2)) * 4
    assert calls == []
    assert rotation_nf(encode(power((1, 2, -3), 2))) == encode((1, 2, -3)) * 2
    assert len(calls) == 1


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
    from oracles import eval_word_perm, regular_rep

    pres = coxeter_presentation(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    rep = regular_rep(pres)
    rng = random.Random(424242)
    for _ in range(200):
        seq = [rng.choice((1, -1)) * rng.randrange(1, 3) for _ in range(rng.randrange(0, 14))]
        assert eval_word_perm(seq, rep) == eval_word_perm(free_reduce(seq), rep)
