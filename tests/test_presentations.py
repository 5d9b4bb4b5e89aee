import hashlib
import itertools
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxembed.presentations import (
    INF,
    CoxeterMatrix,
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
    parse_matrix_text,
    parse_vector_text,
    parse_word,
    pc_presentation,
    serialize_presentation,
    serialize_word,
)
from coxembed.words import commutator, letter, power, relator_nf
from oracles import replace


def test_parse_basic():
    p = parse_presentation("< a, b | a^2, [a,b]^2 >")
    assert p.gens == ("a", "b")
    assert p.relators[0] == (1, 1)
    assert p.relators[1] == power(commutator((1,), (2,)), 2)


def test_parse_inverse_of_group():
    p = parse_presentation("< a, b | a b a (b a b)^-1 >")
    assert p.relators == ((1, 2, 1, -2, -1, -2),)


def test_parse_free_rank_one():
    p = parse_presentation("< a | >")
    assert p.gens == ("a",)
    assert p.relators == ()


def test_parse_empty_generator_list():
    # the serializer writes the trivial presentation as "<  | >"
    trivial = Presentation((), ())
    assert str(trivial) == "<  | >"
    assert parse_presentation(str(trivial)) == trivial
    assert parse_presentation("<|>") == parse_presentation("<\n |\t>") == trivial
    for text in ("< >", "< , a | >"):
        with pytest.raises(ParseError, match="expected 'name', found") as err:
            parse_presentation(text)
        assert (err.value.line, err.value.col) == (1, 3)


def test_parse_lone_one_as_the_identity():
    # simplify's defining words and the kernel table's coset words write
    # the identity as "1"
    assert parse_word("1", ("a", "b")) == parse_word(" 1 ", ()) == ()
    assert parse_presentation("< a | 1 >") == parse_presentation("< a | 1, 1 >") == Presentation(("a",))
    assert parse_presentation("< a | a^2, 1 >") == parse_presentation("< a | a^2 >")
    for text in ("2", "0", "-1", "1 a", "a 1", "1^2", "a^1 1"):
        with pytest.raises(ParseError):
            parse_word(text, ("a",))
    with pytest.raises(ParseError, match="expected a word, found 2"):
        parse_presentation("< a | 2 >")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as err:
        parse_presentation("< a, b | a c >")
    assert err.value.line == 1 and err.value.col == 12
    with pytest.raises(ParseError):
        parse_presentation("< a, a | >")
    with pytest.raises(ParseError):
        parse_presentation("< a | a^2")
    with pytest.raises(ParseError):
        parse_presentation("< a | $ >")


def test_parse_rejects_brackets_nested_past_the_limit():
    # "< a | " takes columns 1-6, so the 101st open bracket is at column 107
    for opener, closer in (("(", ")"), ("[", ", a]")):
        with pytest.raises(ParseError, match="nested more than 100 deep") as err:
            parse_presentation("< a | " + opener * 1000 + "a" + closer * 1000 + " >")
        assert (err.value.line, err.value.col) == (1, 107)
    assert parse_presentation("< a | " + "(" * 100 + "a" + ")" * 100 + " >").relators == ((1,),)
    assert parse_word("(" * 100 + "a" + ")" * 100, ("a",)) == (1,)


def test_parse_rejects_words_past_the_length_limit():
    # each word is bounded before it is built, so a short text asking for
    # 2^41 or 10^9 letters fails at once, at the integer or bracket that
    # asks for them
    cases = (
        ("< a, b | " + "[" * 40 + "a" + ",b]" * 40 + " >", "word longer than 1000000 letters", 31),
        ("< a | a^1000000000 >", "integer outside -1000000..1000000", 9),
        ("< a | a^-1000001 >", "integer outside -1000000..1000000", 9),
        ("< a | a^" + "9" * 5000 + " >", "integer outside -1000000..1000000", 9),
        ("< a, b | (a b)^500001 >", "word longer than 1000000 letters", 16),
    )
    for text, message, col in cases:
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            parse_presentation(text)
        assert (err.value.line, err.value.col) == (1, col)
    # leading zeros do not count against an integer
    assert parse_presentation("< a | a^" + "0" * 5000 + "2 >").relators == ((1, 1),)


def test_parse_bounds_the_letters_of_a_whole_presentation(monkeypatch):
    # the relators together, or words parsed together, hold at most the
    # word bound: here 8 letters, each finished relator counted reduced
    monkeypatch.setattr("coxembed.presentations._MAX_WORD_LENGTH", 8)
    assert parse_presentation("< a, b | a^4, 1, (b a)^2 >").relators == ((1,) * 4, (2, 1, 2, 1))
    assert parse_presentation("< a, b | a a^-1 b, b^7 >").relators == ((2,), (2,) * 7)
    for text, col in (("< a, b | a^4, (b a)^2, b >", 24), ("< a, b | a^4, b^2, [a, b] >", 20)):
        with pytest.raises(ParseError, match="words longer than 8 letters in all") as err:
            parse_presentation(text)
        assert (err.value.line, err.value.col) == (1, col)
    assert parse_word("b^3", ("a", "b"), 5) == (2, 2, 2)
    with pytest.raises(ParseError, match="words longer than 8 letters in all") as err:
        parse_word("b a^3", ("a", "b"), 5)
    assert (err.value.line, err.value.col) == (1, 3)


def test_parse_int_bounds_its_digits():
    # a long digit string is refused before int() reads it, naming the
    # entry and the bound; leading zeros do not count
    assert parse_vector_text("0" * 5000 + "7, -" + "9" * 18) == (7, -int("9" * 18))
    for text in ("1" + "0" * 18, "-" + "9" * 5000):
        with pytest.raises(ValueError, match=f"extended-natural entry .* has {len(text.lstrip('-'))} digits, more than 18"):
            parse_vector_text(text)


def test_family_builders_bound_their_letters_exactly(monkeypatch):
    # every builder counts its relators' letters, before free reduction,
    # before it builds a word, and refuses one letter past the bound,
    # naming the entry that passes it; an instance bounds its ambient and
    # its expected kernel each
    m3 = CoxeterMatrix.from_pairs(3, {(0, 1): 3, (1, 2): INF})
    even = CoxeterMatrix.from_pairs(3, {(0, 1): 4, (1, 2): 6, (0, 2): INF})
    builders = (
        lambda: [coxeter_presentation(m3)],
        lambda: [pc_presentation(PcSpec.from_pairs(3, {(0, 1): 2, (1, 2): 3}, (4, INF, 5)))],
        lambda: [artin_presentation(m3)],
        lambda: [build_thm1_instance(even, (2, INF, 4))],
        lambda: [build_prop2_instance(m3, (4, INF, 2))],
        lambda: [build_artin_instance(m3)],
    )
    entry = r"(label m|commutator power n|order p)\[\d(,\d)?\] = \d+"
    for build in builders:
        built = [
            p for x in build() for p in ((x.ambient, x.expected_kernel) if hasattr(x, "ambient") else (x,))
        ]
        letters = max(sum(map(len, p.relators)) for p in built)
        monkeypatch.setattr("coxembed.presentations._MAX_WORD_LENGTH", letters)
        build()
        monkeypatch.setattr("coxembed.presentations._MAX_WORD_LENGTH", letters - 1)
        with pytest.raises(ValueError, match=f"^{entry} makes relators longer than {letters - 1} letters in all$"):
            build()
        monkeypatch.undo()
    # 6 letters of squares and 6 + 4 of labels
    monkeypatch.setattr("coxembed.presentations._MAX_WORD_LENGTH", 15)
    with pytest.raises(ValueError, match=r"^label m\[1,3\] = 2 makes relators longer than 15 letters in all$"):
        coxeter_presentation(m3)
    monkeypatch.undo()
    # each braid relator in a_i = s_i r cancels one r r^-1: 8 letters of
    # squares and 12 + 8 of braids are counted, 4 of them cancel
    inst = build_artin_inversion_instance(m3)
    assert sum(map(len, inst.ambient.relators)) == 24
    monkeypatch.setattr("coxembed.presentations._MAX_WORD_LENGTH", 28)
    assert build_artin_inversion_instance(m3) == inst
    monkeypatch.setattr("coxembed.presentations._MAX_WORD_LENGTH", 27)
    with pytest.raises(ValueError, match=r"^label m\[1,3\] = 2 makes relators longer than 27 letters in all$"):
        build_artin_inversion_instance(m3)


def test_parse_word_length_limit_is_exact(monkeypatch):
    # with a limit of 8 letters: a power, a commutator and a run of
    # factors each reach it and fail one letter past it, counted before
    # free reduction
    monkeypatch.setattr("coxembed.presentations._MAX_WORD_LENGTH", 8)
    for good, bad, col in (
        ("a^8", "(a b)^5", 7),
        ("(a b)^-4", "(a b a)^-3", 9),
        ("[a b, b^2]", "[a b, b^3]", 1),
        ("a^4 a^-4", "a^4 a^-4 b", 10),
        ("[[a, b], 1]", "[[a, b], b]", 1),
    ):
        assert len(parse_word(good, ("a", "b"))) <= 8
        with pytest.raises(ParseError, match="word longer than 8 letters") as err:
            parse_word(bad, ("a", "b"))
        assert (err.value.line, err.value.col) == (1, col)
    with pytest.raises(ParseError, match=re.escape("integer outside -8..8")):
        parse_word("a^-9", ("a",))


def test_parse_takes_only_ascii_digits_and_names():
    for text, col in (("< a | a^\u00b2 >", 9), ("< a | a^\u0663 >", 9), ("< a\u00e9 | >", 4), ("< a | a\u00b2 >", 8)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_presentation(text)
        assert (err.value.line, err.value.col) == (1, col)
    assert parse_presentation("< a_1 | a_1^-12 >").relators == ((-1,) * 12,)


def test_serialize_examples():
    assert serialize_presentation(Presentation(("a",))) == "< a | >"
    klein = build_klein_instance().expected_kernel
    assert serialize_presentation(klein) == "< a, b | a^-1 b a b >"


def test_presentation_normalizes_relators():
    p = Presentation(("a", "b"), ((1, -1), (-2, 1, 2)))
    assert p.relators == ((1,),)


def test_rename_needs_one_name_per_generator():
    p = Presentation(("a", "b"), ((1, 1),))
    assert p.rename(("x", "y")) == Presentation(("x", "y"), ((1, 1),))
    for names in (("x",), ("x", "y", "z")):
        with pytest.raises(ValueError, match="rename needs one name per generator"):
            p.rename(names)


def test_parse_matrix_text_rejects_bad_entries_and_no_rows():
    with pytest.raises(ValueError, match="bad extended-natural entry 'x'"):
        parse_matrix_text("1,x\nx,1\n")
    # only "inf" or an optional sign and ASCII digits
    for entry in ("2_0", "\u0663", "1e3", "+-2", "2.0", ""):
        with pytest.raises(ValueError, match=re.escape(f"bad extended-natural entry {entry!r}")):
            parse_matrix_text(f"1,{entry}\n{entry},1\n")
    assert parse_vector_text(" +2, 4 ,-3,inf") == (2, 4, -3, INF)
    with pytest.raises(ValueError, match="entries must be >= 2 or inf, got -3"):
        CoxeterMatrix.from_rows(parse_matrix_text("1,-3\n-3,1\n"))
    for text in ("", "\n  \n"):
        with pytest.raises(ValueError, match="empty matrix"):
            parse_matrix_text(text)


def test_presentation_rejects_bad_input():
    with pytest.raises(ValueError):
        Presentation(("a", "a"))
    with pytest.raises(ValueError):
        Presentation(("1bad",))
    with pytest.raises(ValueError):
        Presentation(("a",), ((2,),))


names_pool = st.lists(
    st.sampled_from(["a", "b", "c", "d", "e", "f"]), min_size=1, max_size=6, unique=True
)


@st.composite
def presentations(draw):
    gens = tuple(draw(names_pool))
    n = len(gens)
    letters = st.integers(-n, n).filter(lambda x: x != 0)
    rels = draw(st.lists(st.lists(letters, max_size=20), max_size=10))
    return Presentation(gens, tuple(tuple(r) for r in rels))


@given(presentations())
@settings(max_examples=150)
def test_parse_serialize_round_trip(p):
    assert parse_presentation(serialize_presentation(p)) == p


def test_coxeter_presentation_examples():
    m = CoxeterMatrix.from_rows([[1, 3], [3, 1]])
    p = coxeter_presentation(m)
    assert serialize_presentation(p) == "< s1, s2 | s1^2, s2^2, s1 s2 s1 s2 s1 s2 >"

    m_inf = CoxeterMatrix.from_pairs(2, {(0, 1): INF})
    p_inf = coxeter_presentation(m_inf)
    assert serialize_presentation(p_inf) == "< s1, s2 | s1^2, s2^2 >"


def affine_a3_matrix():
    return CoxeterMatrix.from_pairs(
        4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3, (0, 2): 2, (1, 3): 2}
    )


def test_coxeter_presentation_affine_a3():
    p = coxeter_presentation(affine_a3_matrix())
    squares = [r for r in p.relators if len(r) == 2]
    triples = [r for r in p.relators if len(r) == 6]
    doubles = [r for r in p.relators if len(r) == 4]
    assert len(squares) == 4 and len(triples) == 4 and len(doubles) == 2


def test_pc_presentation_examples():
    spec = PcSpec.from_pairs(2, {(0, 1): 2}, (2, 2))
    p = pc_presentation(spec)
    assert serialize_presentation(p) == (
        "< g1, g2 | g1 g2 g1^-1 g2^-1 g1 g2 g1^-1 g2^-1, g1^2, g2^2 >"
    )

    raag = pc_presentation(PcSpec.from_pairs(3, {(0, 1): 1, (1, 2): 1}, (INF,) * 3))
    assert all(r == relator_nf(r) or len(r) == 4 for r in raag.relators)
    assert len(raag.relators) == 2

    shephard = pc_presentation(PcSpec.from_pairs(2, {(0, 1): 1}, (3, 4)))
    assert len(shephard.relators) == 3


def test_pc_presentation_accepts_order_one():
    p = pc_presentation(PcSpec.from_pairs(1, {}, (1,)))
    assert p.relators == ((1,),)


def test_pc_spec_and_hom_reject_bad_input():
    with pytest.raises(ValueError, match="need one generator order per generator"):
        PcSpec.from_pairs(2, {(0, 1): 2}, (2,))
    with pytest.raises(ValueError, match="generator order must be >= 1 or inf, got 0"):
        PcSpec.from_pairs(1, {}, (0,))
    with pytest.raises(ValueError, match="n must be >= 1"):
        HomZ2n(0, ())
    with pytest.raises(ValueError, match="image 4 outside Z_2\\^2"):
        HomZ2n(2, (4,))


def test_artin_presentation_examples():
    m3 = CoxeterMatrix.from_pairs(2, {(0, 1): 3})
    p = artin_presentation(m3)
    assert serialize_presentation(p) == "< a1, a2 | a1 a2 a1 a2^-1 a1^-1 a2^-1 >"

    m2 = CoxeterMatrix.from_pairs(2, {(0, 1): 2})
    assert artin_presentation(m2).relators == ((1, 2, -1, -2),)

    minf = CoxeterMatrix.from_pairs(2, {(0, 1): INF})
    assert artin_presentation(minf).relators == ()


def test_matrix_validation():
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 2], [3, 1]])
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        CoxeterMatrix.from_rows([[1, 2, 2], [2, 1, 2]])


def test_matrix_text_parsing():
    rows = parse_matrix_text("1,4\n4,1\n")
    assert rows == ((1, 4), (4, 1))
    assert parse_vector_text("2,inf") == (2, INF)
    assert CoxeterMatrix.from_rows(parse_matrix_text("9,4\n4,7")).entries == (
        (1, 4),
        (4, 1),
    )


def thm1_fixture():
    return build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}), (2, 2))


def test_thm1_instance_shape():
    inst = thm1_fixture()
    assert inst.ambient.gens == ("r1", "r2", "s1", "s2")
    assert len(inst.ambient.relators) == 10
    assert serialize_presentation(inst.expected_kernel) == (
        "< a1, a2 | a1 a2 a1^-1 a2^-1 a1 a2 a1^-1 a2^-1, a1^2, a2^2 >"
    )
    assert inst.expected_words == ((letter(2), letter(0)), (letter(3), letter(1)))
    assert inst.transversal_gens == (0, 1)


def test_thm1_rank_one_degenerate():
    inst = build_thm1_instance(CoxeterMatrix.from_rows([[1]]), (3,))
    assert serialize_presentation(inst.ambient) == "< r1, s1 | r1^2, s1^2, s1 r1 s1 r1 s1 r1 >"
    assert serialize_presentation(inst.expected_kernel) == "< a1 | a1^3 >"


def test_thm1_rejects_bad_input():
    with pytest.raises(ValueError):
        build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2))
    with pytest.raises(ValueError):
        build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}), (1, 2))
    with pytest.raises(ValueError, match="need 2 generator orders, got 1"):
        build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}), (2,))


def test_thm1_raag_ambient_right_angled():
    m = CoxeterMatrix.from_pairs(3, {(0, 1): 2, (0, 2): INF, (1, 2): 2})
    inst = build_thm1_instance(m, (INF,) * 3)
    for r in inst.ambient.relators:
        assert len(r) in (2, 4)


def _is_coxeter_shaped(pres):
    seen_square = set()
    for r in pres.relators:
        if len(r) == 2 and r[0] == r[1] and r[0] > 0:
            seen_square.add(r[0])
    if seen_square != {g + 1 for g in range(pres.rank)}:
        return False
    for r in pres.relators:
        if len(r) == 2:
            continue
        if len(r) % 2 or any(l < 0 for l in r):
            return False
        a, b = r[0], r[1]
        if a == b:
            return False
        if r != (a, b) * (len(r) // 2):
            return False
    return True


def test_thm1_ambient_is_coxeter_presentation():
    assert _is_coxeter_shaped(thm1_fixture().ambient)
    inst = build_thm1_instance(
        CoxeterMatrix.from_pairs(3, {(0, 1): 6, (0, 2): 2, (1, 2): INF}), (2, 3, INF)
    )
    assert _is_coxeter_shaped(inst.ambient)


def test_prop2_ctilde3_chain():
    inst = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (4, 4))
    # chain r1 - s1 - s2 - r2 with labels 4, 3, 4; everything else commutes
    chain = CoxeterMatrix.from_pairs(
        4, {(0, 2): 4, (2, 3): 3, (3, 1): 4}
    )
    expected_ambient = coxeter_presentation(chain).rename(("r1", "r2", "s1", "s2"))
    assert sorted(relator_nf(r) for r in inst.ambient.relators) == sorted(
        relator_nf(r) for r in expected_ambient.relators
    )


def test_prop2_rejects_odd_orders():
    with pytest.raises(ValueError):
        build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (3, 4))


def test_prop2_rank_one():
    inst = build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,))
    assert serialize_presentation(inst.ambient) == "< r1, s1 | r1^2, s1^2, s1 r1 s1 r1 s1 r1 s1 r1 >"
    assert serialize_presentation(inst.expected_kernel) == (
        "< s1, t1 | s1^2, t1^2, s1 t1 s1 t1 >"
    )


def test_klein_instance():
    inst = build_klein_instance()
    assert inst.ambient.gens == ("r1", "s1", "r2", "s2")
    assert len(inst.ambient.relators) == 8
    assert relator_nf(inst.expected_kernel.relators[0]) == relator_nf((1, -2, -1, -2))
    assert inst.hom.images == (0b01, 0b11, 0b10, 0b10)
    assert [inst.ambient.gens[g] for g in inst.transversal_gens] == ["r1", "r2"]


def test_instance_commuting_pairs_are_validated():
    inst = build_klein_instance()
    assert replace(inst, commuting={(3, 0)}).commuting == frozenset({(0, 3)})
    with pytest.raises(ValueError, match="distinct"):
        replace(inst, commuting={(1, 1)})
    with pytest.raises(ValueError, match="outside alphabet"):
        replace(inst, commuting={(0, 4)})
    with pytest.raises(ValueError, match="outside alphabet"):
        replace(inst, commuting={(-1, 2)})


def test_instance_commuting_pairs_are_ambient_relations():
    # klein's r1 and s1 have label inf, so no relator makes them commute
    inst = build_klein_instance()
    with pytest.raises(ValueError, match="commuting pair \\(0, 1\\) is not an ambient relation"):
        replace(inst, commuting=inst.commuting | {(0, 1)})
    # (r1 r2)^2 may become any four-letter word alternating between r1 and
    # r2, signs aside, such as its inverse or [r2, r1], since both are
    # involutions; a word that does not alternate says nothing
    relators = inst.ambient.relators
    k = relators.index((1, 3, 1, 3))
    cases = (((-3, -1, -3, -1), True), ((3, 1, -3, -1), True), ((1, 3, 1, -3), True), ((1, 3, 3, 1), False))
    for r, ok in cases:
        ambient = Presentation(inst.ambient.gens, relators[:k] + (r,) + relators[k + 1:])
        if ok:
            assert replace(inst, ambient=ambient).ambient == ambient
        else:
            with pytest.raises(ValueError, match="commuting pair \\(0, 2\\) is not an ambient relation"):
                replace(inst, ambient=ambient)


def test_instance_expected_words_lie_in_the_kernel():
    # s1 r1 maps to 0b10, not to 0: it is no element of the kernel
    inst = build_klein_instance()
    s1, r1, r2, s2 = 2, 1, 3, 4
    assert replace(inst, expected_words=((s1, r1, r2), (s2, r2))) == inst
    with pytest.raises(ValueError, match="expected word outside the kernel of the hom"):
        replace(inst, expected_words=((s1, r1), (s2, r2)))
    with pytest.raises(ValueError, match="one expected word per expected kernel generator"):
        replace(inst, expected_words=inst.expected_words[:1])


def test_serialize_word_rejects_letter_zero():
    assert serialize_word((1, 1, -2), ("a", "b")) == "a^2 b^-1"
    assert serialize_word((), ("a",)) == ""
    for w in ((1, 0, 1), (0,), (0, 0), (1, 0)):
        with pytest.raises(ValueError, match="0 is not a letter"):
            serialize_word(w, ("a",))


def test_serialize_word_rejects_letters_outside_the_alphabet():
    for w in ((2,), (1, -2)):
        with pytest.raises(ValueError, match="letter -?2 outside alphabet of rank 1"):
            serialize_word(w, ("a",))


def test_instance_transversal_gens_are_validated():
    # an index past either end is rejected like a commuting pair's; -1
    # would otherwise read the last generator's image
    inst = build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}), (2, 2))
    for gens in ((0, -1), (0, 4), (0, 5)):
        with pytest.raises(ValueError, match="outside alphabet"):
            replace(inst, transversal_gens=gens)


def test_hom_word_image_rejects_letters_outside_the_alphabet():
    hom = HomZ2n(1, (1,))
    assert hom.word_image((1, -1, 1)) == 1
    with pytest.raises(ValueError, match="0 is not a letter"):
        hom.word_image((0,))
    with pytest.raises(ValueError, match="missing generator image"):
        hom.word_image((2,))


def test_instance_rejects_a_generator_with_no_square():
    inst = build_klein_instance()
    no_s2_square = tuple(r for r in inst.ambient.relators if r != (4, 4))
    with pytest.raises(ValueError, match="g\\^2"):
        replace(inst, ambient=Presentation(inst.ambient.gens, no_s2_square))
    # g^-2 is a square too
    squares = tuple((-4, -4) if r == (4, 4) else r for r in inst.ambient.relators)
    assert replace(inst, ambient=Presentation(inst.ambient.gens, squares)).ambient.relators == squares


def test_artin_instance_braid_words():
    inst = build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    # w(1,2) = s1 r1 s2 r2 s1 r1 followed by w(2,1)^-1
    braid = inst.ambient.relators[-1]
    s1, r1, s2, r2 = letter(2), letter(0), letter(3), letter(1)
    assert braid[:6] == (s1, r1, s2, r2, s1, r1)
    assert len(braid) == 12

    inst2 = build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 2}))
    assert relator_nf(inst2.ambient.relators[-1]) != ()

    inst4 = build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}))
    assert serialize_presentation(inst4.expected_kernel) == (
        "< a1, a2 | a1 a2 a1 a2 a1^-1 a2^-1 a1^-1 a2^-1 >"
    )


small_even = st.sampled_from([2, 4, 6, INF])
small_orders = st.sampled_from([2, 3, 4, INF])


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(small_even, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
            st.lists(small_orders, min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_instance_hom_kills_relators(args):
    n, ms, ps = args
    pairs = {}
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs[(i, j)] = ms[k]
            k += 1
    inst = build_thm1_instance(CoxeterMatrix.from_pairs(n, pairs), tuple(ps))
    for r in inst.ambient.relators:
        assert inst.hom.word_image(r) == 0
    even_ps = tuple(p if p == INF else 2 * p for p in ps)
    inst2 = build_prop2_instance(CoxeterMatrix.from_pairs(n, pairs), even_ps)
    for r in inst2.ambient.relators:
        assert inst2.hom.word_image(r) == 0
    inst3 = build_artin_instance(CoxeterMatrix.from_pairs(n, pairs))
    for r in inst3.ambient.relators:
        assert inst3.hom.word_image(r) == 0


def test_evenness():
    assert math.isinf(INF)
    assert CoxeterMatrix.from_pairs(2, {(0, 1): INF}).is_even
    assert CoxeterMatrix.from_pairs(2, {(0, 1): 4}).is_even
    assert not CoxeterMatrix.from_pairs(2, {(0, 1): 3}).is_even


LABELS = (2, 3, 4, 5, 6, INF)
ORDERS = (2, 4, INF)
RANK3 = (
    {(0, 1): 3, (1, 2): 3},
    {(0, 1): 4, (1, 2): 3, (0, 2): INF},
    {(0, 1): 6, (1, 2): INF},
    {(0, 1): 5, (1, 2): 3},
)


def _instance_sweep():
    """Every builder over ranks 1-2 with labels in ``LABELS`` and orders in
    ``ORDERS``, a few rank-3 matrices, and klein."""
    cases = [(CoxeterMatrix.from_rows([[1]]), itertools.product(ORDERS, repeat=1))]
    cases += [
        (CoxeterMatrix.from_pairs(2, {(0, 1): m}), itertools.product(ORDERS, repeat=2))
        for m in LABELS
    ]
    cases += [
        (CoxeterMatrix.from_pairs(3, pairs), [(2, 4, INF), (4, 4, 4)]) for pairs in RANK3
    ]
    insts = [build_klein_instance()]
    for matrix, order_tuples in cases:
        insts += [build_artin_instance(matrix), build_artin_inversion_instance(matrix)]
        for orders in order_tuples:
            if matrix.is_even:
                insts.append(build_thm1_instance(matrix, orders))
            insts.append(build_prop2_instance(matrix, orders))
    return insts


def _instance_record(inst):
    return repr((
        inst.family,
        inst.ambient.gens,
        inst.ambient.relators,
        inst.expected_kernel.gens,
        inst.expected_kernel.relators,
        inst.expected_words,
        list(range(inst.ambient.rank)),
        sorted(inst.commuting),
        inst.hom.n,
        inst.hom.images,
        inst.transversal_gens,
        json.dumps(inst.params, sort_keys=True),
    ))


# sha256 over every field of every instance of the sweep, relator order
# included
INSTANCE_PIN = "2c80aa1717afe53effcab1bb9ccd9f773e9cd117ec598311e791d46d80a66ff3"


def test_instance_pins():
    text = "\n".join(_instance_record(inst) for inst in _instance_sweep())
    assert hashlib.sha256(text.encode()).hexdigest() == INSTANCE_PIN


def test_rules_are_ambient_relations():
    # evaluation merges symbols equal in the right-angled Coxeter group of
    # the commuting pairs, so each of its relations must be a relator of
    # the ambient: g^2 for every generator, (a b)^2 or [a, b] for a
    # commuting pair
    for inst in _instance_sweep():
        relators = {relator_nf(r) for r in inst.ambient.relators}
        for g in range(inst.ambient.rank):
            assert power((letter(g),), 2) in inst.ambient.relators, (inst.family, g)
        for a, b in inst.commuting:
            x, y = (letter(a),), (letter(b),)
            forms = {relator_nf(power(x + y, 2)), relator_nf(commutator(x, y))}
            assert forms & relators, (inst.family, a, b)
