import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxembed import schreier, tietze
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
    parse_presentation,
    parse_word,
    serialize_presentation,
    serialize_word,
)
from coxembed.schreier import evaluated_kernel_presentation, raw_kernel_presentation
from coxembed.tietze import DEFAULT_MAX_RELATOR_LENGTH, simplify
from coxembed.verify import (
    _flip_involutions,
    abelianization,
    coxeter_matrix_of,
    coxeter_word_trivial,
    group_order,
    match_presentations,
)
from coxembed.words import commutator, decode, expand_kernel_word, invert, power, relator_nf
from oracles import reference_flip_involutions, reference_simplify
from test_presentations import _instance_sweep


def test_simplify_merges_relator_variants():
    # no generator occurs once, so simplify only normalizes
    p = Presentation(("a", "b"), ((2, 1, 2, -1), (-1, 2, 1, 2)))
    out, trace = simplify(p)
    assert len(out.relators) == 1
    assert trace.steps == [("dedupe", 1), ("reduce",)]

    q = Presentation(("a",), ((1, -1),))
    assert simplify(q)[0].relators == ()

    r = Presentation(
        ("a", "b"),
        (power(commutator((1,), (-2,)), 2), power(commutator((1,), (2,)), 2)),
    )
    assert len(simplify(r)[0].relators) == 1


def test_simplify_sorts_relators_deterministically():
    p = Presentation(("a", "b"), ((1, 2, 1, 2), (2, 2), (1, 1)))
    n, _ = simplify(p)
    assert [len(r) for r in n.relators] == [2, 2, 4]
    assert n.relators[0] == (1, 1)


def test_simplify_eliminates_through_short_relators():
    out, trace = simplify(parse_presentation("< a, b | b a^-1 >"))
    assert serialize_presentation(out) == "< b | >"
    assert trace.defining == {"a": "b", "b": "b"}

    out, trace = simplify(parse_presentation("< s, t | s t, s^2 >"))
    assert serialize_presentation(out) == "< t | t^2 >"
    assert trace.defining == {"s": "t^-1", "t": "t"}

    p = parse_presentation("< a, b | a b a b >")
    out, trace = simplify(p)
    assert out == p
    assert all(step[0] != "eliminate" for step in trace.steps)


def test_eliminate_prop2_order_one_pairs():
    # with (s_i t_i)^1 relators the t_i are redundant; solving for them
    # substitutes s_i^-1, so recovering the Coxeter presentation verbatim
    # needs the involution sign flip after the eliminations
    inst = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2))
    kernel = inst.expected_kernel
    target = coxeter_presentation(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    plain, _ = simplify(kernel)
    assert match_presentations(_flip_involutions(plain), target) is not None
    assert plain.rank == 2
    assert group_order(plain) == 6 == group_order(target)


def thm1_fixture():
    return build_thm1_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 4}), (2, 2))


def test_simplify_raw_thm1_reaches_expected():
    inst = thm1_fixture()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    simplified, trace = simplify(raw.presentation)
    assert simplified.rank == 2
    expected_nf = sorted(relator_nf(r) for r in inst.expected_kernel.relators)
    assert sorted(relator_nf(r) for r in simplified.relators) == expected_nf
    assert any(step[0] == "eliminate" for step in trace.steps)
    assert not trace.bounded


def test_simplify_free_group_raw_kernel():
    p = parse_presentation("< a | >")
    raw = raw_kernel_presentation(p, HomZ2n(1, (1,)), (0,))
    simplified, _ = simplify(raw.presentation)
    assert simplified.rank == 1
    assert simplified.relators == ()


def test_simplify_fixpoint_on_simple_input():
    p = parse_presentation("< a, b | a^2, b^2, (a b)^3 >")
    simplified, trace = simplify(p)
    assert str(simplified) == "< a, b | a^2, b^2, a b a b a b >"
    assert all(step[0] != "eliminate" for step in trace.steps)


def test_simplify_deterministic():
    inst = thm1_fixture()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    a = simplify(raw.presentation)
    b = simplify(raw.presentation)
    assert a[0] == b[0]
    assert a[1].steps == b[1].steps
    assert a[1].defining == b[1].defining


def test_simplify_preserves_order_on_fixtures():
    for inst in (
        thm1_fixture(),
        build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,)),
        build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2)),
    ):
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        simplified, _ = simplify(raw.presentation)
        assert group_order(raw.presentation) == group_order(simplified)
        assert abelianization(raw.presentation) == abelianization(simplified)


def test_simplify_respects_relator_length_bound():
    # eliminations may never push a relator past the bound; relators
    # already longer than the bound can only come from the input
    inst = thm1_fixture()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    initial_max = max(len(relator_nf(r)) for r in raw.presentation.relators)
    simplified, _ = simplify(raw.presentation, max_relator_length=4)
    assert max(len(r) for r in simplified.relators) <= max(4, initial_max)


def test_simplify_length_bound_sets_bounded():
    # the 2x2 fixture's raw kernel needs relators longer than 6 to finish,
    # so simplify stops early and says so
    inst = thm1_fixture()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    simplified, trace = simplify(raw.presentation, max_relator_length=6)
    assert simplified.rank == 8
    assert trace.bounded is True


def test_simplify_length_bound_ignores_untouched_relators():
    # c^8 is longer than the bound, but eliminating a leaves it untouched
    p = parse_presentation("< a, b, c | a b, c^8 >")
    out, trace = simplify(p, max_relator_length=5)
    assert str(out) == "< b, c | c^8 >"
    assert trace.bounded is False
    assert (str(out), trace.steps, trace.defining, trace.bounded) == reference_simplify(p, 5)


def test_simplify_config_validation():
    with pytest.raises(ValueError):
        simplify(parse_presentation("< a | a^2 >"), max_relator_length=0)


names = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True)


@st.composite
def random_presentations(draw):
    gens = tuple(draw(names))
    n = len(gens)
    letters = st.integers(-n, n).filter(lambda x: x != 0)
    rels = draw(st.lists(st.lists(letters, min_size=1, max_size=8), max_size=6))
    return Presentation(gens, tuple(tuple(r) for r in rels))


@given(random_presentations())
@settings(max_examples=50, deadline=None)
def test_simplify_preserves_abelianization(p):
    simplified, _ = simplify(p)
    assert abelianization(simplified) == abelianization(p)


def test_flip_involutions_after_a_square_made_by_elimination():
    # eliminating a makes c^2 a relator; the untouched b c b c^-1 must
    # then flip to b c b c, as re-normalizing everything would
    p = parse_presentation("< a, b, c | a c, a c^-1, b c b c^-1 >")
    out = _flip_involutions(simplify(p)[0])
    assert str(out) == "< b, c | c^2, b c b c >"
    assert str(out) == reference_simplify(p, flips=True)[0]


@st.composite
def presentations_with_squares(draw):
    p = draw(random_presentations())
    squares = draw(st.lists(st.integers(1, p.rank), max_size=p.rank))
    return Presentation(p.gens, p.relators + tuple((g, g) for g in squares))


# edge cases of the rewrite in place, each named by what its first
# elimination does to the other relators
# substituting c for b makes c c^-1 inside a c b^-1 a d
@example(parse_presentation("< a, b, c, d | b c^-1, a c b^-1 a d >"), 1000)
# substituting c for b makes the last letter of b d c^-1 the inverse of the first
@example(parse_presentation("< b, c, d | b c^-1, b d c^-1 >"), 1000)
# deleting b leaves c next to c^-1 in a c b c^-1 d
@example(parse_presentation("< a, b, c, d | b, a c b c^-1 d >"), 1000)
# a c a c and a c b c both become b c b c, and a d^3 becomes the untouched b d^3
@example(parse_presentation("< a, b, c, d | a b^-1, a c a c, a c b c, a d^3, b d^3 >"), 1000)
# at bound 3, deleting b brings the input relator a b c d to 3 letters
@example(parse_presentation("< a, b, c, d | b, a b c d >"), 3)
# at bound 3, deleting b leaves the input relator a^4 b at 4 letters
@example(parse_presentation("< a, b | b, a^4 b >"), 3)
@given(presentations_with_squares(), st.sampled_from([1, 2, 3, 5, 1000]))
@settings(max_examples=300, deadline=None)
def test_simplify_matches_whole_presentation_reference(p, max_len):
    out, trace = simplify(p, max_relator_length=max_len)
    got = (str(out), trace.steps, trace.defining, trace.bounded)
    assert got == reference_simplify(p, max_len)


def test_flip_involutions_gives_one_form_per_relator_class():
    # the second relator of q is that of p inverted, with a^-1 written a;
    # flipping and re-normalizing until nothing changed ended them at
    # a b^-1 c b c^-1 and a c b^-1 c^-1 b, and no match
    p = parse_presentation("< a, b, c | a^2, a b^-1 c b c^-1, a b c b >")
    q = parse_presentation("< a, b, c | a^2, c b^-1 c^-1 b a, a b c b >")
    assert _flip_involutions(p) == _flip_involutions(q)
    assert str(_flip_involutions(q)) == "< a, b, c | a^2, a b c b, a b^-1 c b c^-1 >"
    assert match_presentations(_flip_involutions(p), _flip_involutions(q)) is not None


@given(presentations_with_squares(), st.data())
@settings(max_examples=200, deadline=None)
def test_flip_involutions_matches_brute_force(p, data):
    out = _flip_involutions(p)
    assert str(out) == reference_flip_involutions(p)
    # each relator rotated, perhaps inverted, with the signs of some
    # involutions changed throughout and of some involution letters
    # changed where no neighbour has their generator, so that it stays
    # cyclically reduced, gives the same forms
    squares = {abs(r[0]) for r in p.relators if len(r) == 2 and r[0] == r[1]}
    whole = data.draw(st.sets(st.sampled_from(sorted(squares)))) if squares else set()
    moved = []
    for r in p.relators:
        n = len(r)
        k = data.draw(st.integers(0, n - 1))
        r = r[k:] + r[:k]
        if data.draw(st.booleans()):
            r = invert(r)
        signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        r = tuple(
            -l
            if abs(l) in squares
            and (abs(l) in whole) != (s and (n == 1 or abs(l) not in (abs(r[i - 1]), abs(r[(i + 1) % n]))))
            else l
            for i, (l, s) in enumerate(zip(r, signs))
        )
        moved.append(r)
    assert _flip_involutions(Presentation(p.gens, tuple(moved))) == out


def test_flip_involutions_after_simplify_matches_reference_on_family_kernels():
    # verify compares simplified kernels with involution signs flipped; on
    # the kernels of the built families that equals the reference that
    # flips after every elimination (on arbitrary presentations it need not)
    for inst in _instance_sweep():
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).presentation
        for p in (raw, inst.expected_kernel):
            assert str(_flip_involutions(simplify(p)[0])) == reference_simplify(p, flips=True)[0], inst.params


def test_trusted_presentations_equal_validated_ones(monkeypatch):
    # the raw and evaluated kernels, both the one read from coset 0 and
    # the coset walk, simplify output and the involution flip skip
    # validation; every presentation built that way must equal
    # the validated one, with nonempty, cyclically reduced relators, as
    # simplify's load relies on
    built = []
    trusted = Presentation.trusted.__func__

    def recorded(cls, gens, relators):
        built.append(trusted(cls, gens, relators))
        return built[-1]

    monkeypatch.setattr(Presentation, "trusted", classmethod(recorded))
    for inst in _instance_sweep():
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        evaluated_kernel_presentation(inst)
        schreier._walked_kernel(inst)
        for p in (raw.presentation, inst.expected_kernel):
            _flip_involutions(simplify(p)[0])
        assert len(built) == 7, inst.params
        for p in built:
            assert p == Presentation(p.gens, p.relators), inst.params
        built.clear()


def test_trace_reads_alike_however_it_is_read():
    # steps and defining are rendered on first access and kept: reading
    # them twice, after another simplify call or through to_dict gives
    # equal values
    p = DIGEST_CASES["chain5"]()
    first, second, third = (simplify(p)[1] for _ in range(3))
    as_dict = third.to_dict()
    steps, defining = first.steps, first.defining
    assert first.steps is steps and first.defining is defining
    assert (second.defining, second.steps) == (defining, steps)
    assert as_dict == {"steps": [list(s) for s in steps], "defining": defining, "bounded": False}
    assert first.to_dict() == as_dict and (third.steps, third.defining) == (steps, defining)


def _check_bookkeeping(rels):
    """The invariants a ``tietze._Relators`` keeps between eliminations:
    ``ids`` and ``forms`` are inverse maps over nonempty normal forms,
    every generator of a live form has its id in ``containing``, and every
    live short form has a heap entry that is still valid."""
    forms = rels.forms
    assert rels.ids == {c: i for i, c in forms.items()}
    assert len(rels.ids) == len(forms)
    for i, c in forms.items():
        assert c and decode(c) == relator_nf(decode(c))
        for x in c:
            assert i in rels.containing.get(chr(ord(x) >> 1), ())
    heap = rels.heap
    assert all(heap[(k - 1) // 2] <= heap[k] for k in range(1, len(heap)))
    valid = {entry for entry in heap if forms.get(entry[2]) == entry[1]}
    short = {(len(c), c, i) for i, c in forms.items() if len(c) == 1 or (len(c) == 2 and c[0] != c[1])}
    assert short <= valid


# inputs whose eliminations use relators of three or more letters, chosen
# by the growth estimate, and one where the bound blocks the relator a b
# until the longer relator holding a and b is gone
LONG_ELIMINATIONS = parse_presentation("< a, b, c, d | a b c d, a^2 b c^-1 d^2, a d b d c^3 >")
BLOCKED_SHORT = parse_presentation("< a, b, c | a b^-1 a^2 c^-1, a b >")


def test_long_eliminations_match_reference():
    out, trace = simplify(LONG_ELIMINATIONS)
    eliminated = [s[1:3] for s in trace.steps if s[0] == "eliminate"]
    assert eliminated == [("b", "a b c d"), ("a", "a d^-1 c^-2 d^2")]
    assert (str(out), trace.steps, trace.defining, trace.bounded) == reference_simplify(LONG_ELIMINATIONS)


def test_bound_blocks_a_short_elimination_until_the_long_relator_goes():
    out, trace = simplify(BLOCKED_SHORT, max_relator_length=4)
    eliminated = [s[1:3] for s in trace.steps if s[0] == "eliminate"]
    assert eliminated == [("c", "a^2 c^-1 a b^-1"), ("a", "a b")]
    assert (str(out), trace.steps, trace.defining, trace.bounded) == reference_simplify(BLOCKED_SHORT, 4)


def test_relators_bookkeeping_after_every_elimination(monkeypatch):
    eliminate = tietze._Relators.eliminate
    checked = []

    def checked_eliminate(rels, *args):
        counts = eliminate(rels, *args)
        _check_bookkeeping(rels)
        checked.append(args)
        return counts

    monkeypatch.setattr(tietze._Relators, "eliminate", checked_eliminate)
    prop2 = build_prop2_instance(CoxeterMatrix.from_pairs(4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}), (2, 4, 6, 2))
    cases = [
        (p, bound)
        for p in (_raw(build_thm1_instance(_chain(4), (2,) * 4)), _raw(prop2), DIGEST_CASES["chain5"]())
        for bound in DIGEST_BOUNDS
    ]
    cases += [(LONG_ELIMINATIONS, DEFAULT_MAX_RELATOR_LENGTH), (BLOCKED_SHORT, 4)]
    for p, bound in cases:
        before = len(checked)
        out, trace = simplify(p, bound)
        assert len(checked) - before == sum(1 for s in trace.steps if s[0] == "eliminate") > 0


# Simplify output pinned by digests taken from the whole-presentation
# implementation that re-normalized every relator after each elimination.
# The first two digests per case are for DIGEST_BOUNDS in order, each
# covering str(presentation), trace.steps, trace.defining and
# trace.bounded.  The third covers the text of the presentation with
# involution signs flipped, as verify compares it.  chain5 at the first
# bound runs to 5 generators and equals
# tests/oracles.py::reference_simplify, which takes about 30 s there.
DIGEST_BOUNDS = (DEFAULT_MAX_RELATOR_LENGTH, 7)


def _path(n, label):
    return CoxeterMatrix.from_pairs(n, {(i, i + 1): label for i in range(n - 1)})


def _chain(n):
    return _path(n, 4)


def _raw(inst):
    return raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).presentation


def _long(n):
    """``scripts/simplify_chain.py``'s ``long`` input: the raw thm1 kernel
    on the n-path, labels 4 and generator orders inf, without its relators
    of one or two letters, so that every elimination solves a longer
    relator."""
    raw = _raw(build_thm1_instance(_chain(n), (INF,) * n))
    return Presentation(raw.gens, tuple(r for r in raw.relators if len(relator_nf(r)) > 2))


# each case gives the presentation to simplify
DIGEST_CASES = {
    "thm1-m2x2_4": lambda: _raw(build_thm1_instance(_chain(2), (2, 2))),
    "thm1-m2x2_4-33": lambda: _raw(build_thm1_instance(_chain(2), (3, 3))),
    "prop2-rank1": lambda: _raw(build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,))),
    "prop2-m2x2_3": lambda: _raw(build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2))),
    "prop2-m2x2_3-44": lambda: _raw(build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (4, 4))),
    "thm1-m3x3_right_angled": lambda: _raw(
        build_thm1_instance(CoxeterMatrix.from_rows([[1, 2, INF], [2, 1, 2], [INF, 2, 1]]), (2, 2, 2))
    ),
    "klein": lambda: _raw(build_klein_instance()),
    "artin-3": lambda: _raw(build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))),
    # 289 -> 5 generators
    "chain5": lambda: _raw(build_thm1_instance(_chain(5), (2,) * 5)),
    # 113 -> 18 generators by 95 eliminations, each solving a relator of
    # three or more letters (30 at the second bound); equals
    # reference_simplify at both bounds
    "long4": lambda: _long(4),
}

SIMPLIFY_DIGESTS = {
    "thm1-m2x2_4": (
        "a341802b4719e4c450d7993b46223b0b230ea19ff6b8a989e10b4b067e0ffa9c",
        "ec02b3d33c82146aa6925f60cc1900bd6652f8cc88debccc2e64323a25b55172",
        "60b5d52ccda8c9f1f7187b44c6666960ce7de0d3f8874f5411ccf6e33eb3425f",
    ),
    "thm1-m2x2_4-33": (
        "ff5f0a27efa082cb90782ab085dfe96e06a939722b11a35d53a2ffb6bed7d537",
        "4c14b1ff0f18dbfd35d64291c7f3937098f14d911baafd57bebb6ec77ba3e27d",
        "47d9fc5a8758587096c0ce555f8e0f39af4f9106d56f4f8d5c77b59dba6c0cd8",
    ),
    "prop2-rank1": (
        "cb9eaadb1789645382a6d35b1187ae8814f2cffb7eea50dc7f18f68d42efa5ea",
        "cb9eaadb1789645382a6d35b1187ae8814f2cffb7eea50dc7f18f68d42efa5ea",
        "c4a7bd1b28643dfaf4494baf68800042de1fe0f936c6b14d0cdd20493f4bd197",
    ),
    "prop2-m2x2_3": (
        "74a98fc591dd3078d572788d56f3bf02ca27916e055b886c3c5ea5e3fa72d2f4",
        "74a98fc591dd3078d572788d56f3bf02ca27916e055b886c3c5ea5e3fa72d2f4",
        "07a35e15816931b30aa9dc3be4d7dab54d89e0e60caf45f1e8849dc0bbcca440",
    ),
    "prop2-m2x2_3-44": (
        "1e4d8f8ed388e2db27c332d61c1dd5e70772078d9512b06cd0b6ee2e0aa7a51c",
        "1e4d8f8ed388e2db27c332d61c1dd5e70772078d9512b06cd0b6ee2e0aa7a51c",
        "282a38ec5bb3bde0cc5872ce04a8adda1d140008872a18161a6c78459c93a71b",
    ),
    "thm1-m3x3_right_angled": (
        "ac691d59f62749189e5d73a9e6582b17cbd2bda3d78a0db436cf6189c33d49bf",
        "ac691d59f62749189e5d73a9e6582b17cbd2bda3d78a0db436cf6189c33d49bf",
        "d85c567ef97af61339f0f4f78081dac156dd6573de3ea2c31ec6e9e5b3a79245",
    ),
    "klein": (
        "7b8e02b3bffcecc484c0329fe48a38fc19a5ce638d811641f0f748d209732796",
        "7b8e02b3bffcecc484c0329fe48a38fc19a5ce638d811641f0f748d209732796",
        "7be9b657a28850698e2f7eae82a12c34ff370e56acf2345cdbe97f62e581cdea",
    ),
    "artin-3": (
        "725801a8ce3358c1bac2fc80879559cb692b6482c53b7fd3680ef699e143318a",
        "f2d6e2ac7f3053c70ba26cdf88182b936212b78ae3bde71d4217f87f66bc71b8",
        "f92608d9c8d5dcbc2fa68cbff11ae5a376e07bafc89de137a7b53c0a332cb64e",
    ),
    "chain5": (
        "e557b22f124d54059a151ec852ab8945a1e7dafa284203e7d8e3bec5e92a0ae5",
        "0b7996ba5dfbcdbf30cdb877ad12f75f03f219c268f1e4c2ee61fd3d1b1ace6b",
        "b4a96edc11ee7a5671fca1d7099ca4b1242befa20475fca4a731e19e44216a3a",
    ),
    "long4": (
        "69079bcd6de5a6e80b1e0be70d8a90858c366b7a62ef5693d0074245b45aceb4",
        "e64007a2fe7ca9e1f5c60f196b9b47386faccd523de9540a1f96446e263a046a",
        "7c61f58b8948135cf651a59beb69f7c87031af74dc96334c879eaddbab5f481c",
    ),
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_simplify_output_pinned(case):
    raw = DIGEST_CASES[case]()
    records = []
    for bound in DIGEST_BOUNDS:
        out, trace = simplify(raw, bound)
        records.append(repr((str(out), trace.steps, trace.defining, trace.bounded)))
    records.append(str(_flip_involutions(simplify(raw)[0])))
    got = tuple(hashlib.sha256(record.encode()).hexdigest() for record in records)
    assert got == SIMPLIFY_DIGESTS[case]


def _unsound_words(raw_kernel, out, trace, matrix):
    """The ambient words that must be trivial if ``simplify`` is sound:
    each output relator with every surviving symbol replaced by its
    Schreier defining word, and for every raw symbol its ``trace.defining``
    entry, expanded alike, times the inverse of its own Schreier word.
    Returns those that the chamber check finds nontrivial."""
    schreier = {g.name: g.defining for g in raw_kernel.table}
    images = [schreier[name] for name in out.gens]
    words = [expand_kernel_word(r, images) for r in out.relators]
    for name, text in trace.defining.items():
        words.append(expand_kernel_word(parse_word(text, out.gens), images) + invert(schreier[name]))
    return [w for w in words if not coxeter_word_trivial(matrix, w)]


# scripts/simplify_chain.py's thm1 and prop2 chains
CHAINS = {
    "thm1": lambda n: build_thm1_instance(_chain(n), (INF,) * n),
    "prop2": lambda n: build_prop2_instance(_path(n, 3), (4,) * n),
}


@pytest.mark.parametrize("n", (5, 6))
@pytest.mark.parametrize("chain", CHAINS)
def test_simplify_output_holds_in_the_coxeter_group(chain, n):
    # the Tits representation is faithful, so the chamber check decides
    # equality in the ambient Coxeter group W at any rank: each output
    # relator and each defining word of the raw kernel's simplification
    # must hold in W once its symbols are read as their Schreier words
    inst = CHAINS[chain](n)
    matrix = coxeter_matrix_of(inst.ambient)
    raw_kernel = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    out, trace = simplify(raw_kernel.presentation)
    assert out.relators and len(trace.defining) == raw_kernel.presentation.rank
    assert _unsound_words(raw_kernel, out, trace, matrix) == []
    # negative control: the same check rejects the longest output relator
    # with its first letter dropped, and nothing else
    k = max(range(len(out.relators)), key=lambda i: len(out.relators[i]))
    broken = Presentation.trusted(out.gens, out.relators[:k] + (out.relators[k][1:],) + out.relators[k + 1 :])
    assert len(_unsound_words(raw_kernel, broken, trace, matrix)) == 1


@pytest.mark.parametrize("chain", CHAINS)
def test_trace_and_table_words_parse_back(chain):
    # the identity is written "1" in trace.defining and in the coset words
    # of the kernel table; every entry parses back to the word it names
    inst = CHAINS[chain](5)
    raw_kernel = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    out, trace = simplify(raw_kernel.presentation)
    assert "1" in trace.defining.values()
    for text in trace.defining.values():
        assert (serialize_word(parse_word(text, out.gens), out.gens) or "1") == text
    cosets = [row[1] for row in raw_kernel.table_rows(inst.ambient)]
    assert "1" in cosets
    for text in cosets:
        assert (serialize_word(parse_word(text, inst.ambient.gens), inst.ambient.gens) or "1") == text
