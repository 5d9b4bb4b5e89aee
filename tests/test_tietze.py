import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxembed import tietze
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
    serialize_presentation,
)
from coxembed.schreier import evaluated_kernel_presentation, raw_kernel_presentation
from coxembed.tietze import DEFAULT_MAX_RELATOR_LENGTH, simplify
from coxembed.verify import _flip_involutions, abelianization, group_order, match_presentations
from coxembed.words import commutator, cyclic_reduce, decode, invert, power, relator_nf
from oracles import reference_simplify
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


@given(presentations_with_squares(), st.sampled_from([3, 5, 1000]))
@settings(max_examples=300, deadline=None)
def test_simplify_matches_whole_presentation_reference(p, max_len):
    out, trace = simplify(p, max_relator_length=max_len)
    got = (str(out), trace.steps, trace.defining, trace.bounded)
    assert got == reference_simplify(p, max_len)


def test_flip_involutions_after_simplify_matches_reference_on_family_kernels():
    # verify compares simplified kernels with involution signs flipped; on
    # the kernels of the built families that equals the reference that
    # flips after every elimination (on arbitrary presentations it need not)
    for inst in _instance_sweep():
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).presentation
        for p in (raw, inst.expected_kernel):
            assert str(_flip_involutions(simplify(p)[0])) == reference_simplify(p, flips=True)[0], inst.params


def test_trusted_presentations_equal_validated_ones():
    # raw and evaluated kernels, simplify output and the involution flip
    # skip validation; each must equal the validated, reduced presentation
    for inst in _instance_sweep():
        raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
        simplified = simplify(raw.presentation)[0]
        built = (
            raw.presentation,
            evaluated_kernel_presentation(inst, raw).presentation,
            simplified,
            simplify(inst.expected_kernel)[0],
            _flip_involutions(simplified),
        )
        for p in built:
            assert p == Presentation(p.gens, p.relators), inst.params


def _gen_counts(c):
    counts = {}
    for x in c:
        counts[ord(x) >> 1] = counts.get(ord(x) >> 1, 0) + 1
    return counts


def _recount(rels):
    """The bookkeeping a ``tietze._Relators`` keeps after every put,
    recounted from its live forms; empty sets left behind are dropped."""
    forms = rels.forms
    containing = {}
    for i, c in forms.items():
        for x in c:
            containing.setdefault(x, set()).add(i)
    short = tuple(
        sorted(c for c in forms.values() if len(c) == n and 1 in _gen_counts(c).values()) for n in (1, 2)
    )
    return {c: i for i, c in forms.items()}, containing, short


def _recount_long(rels):
    """The counted bookkeeping of a ``tietze._Relators``, recounted from the
    forms it last counted, which are the live forms of the ids not put
    since."""
    counted = rels.counted
    for i in set(rels.forms) | set(counted):
        if i not in rels.dirty:
            assert counted.get(i, (None,))[0] == rels.forms.get(i)
    counts = {i: _gen_counts(c) for i, (c, _) in counted.items()}
    occ = {}
    for cnt in counts.values():
        for g, k in cnt.items():
            occ[g] = occ.get(g, 0) + k
    singles = {
        i: sorted(g for g, k in cnt.items() if k == 1) for i, cnt in counts.items() if len(counted[i][0]) > 2
    }
    singles = {i: gs for i, gs in singles.items() if gs}
    long_usable = sorted((len(counted[i][0]), counted[i][0], i) for i in singles)
    return counts, occ, singles, long_usable


def _still_rejected(rels, r, g):
    """True when eliminating ``g`` by relator ``r`` would write a relator
    longer than the bound, worked out on words."""
    form = decode(rels.forms[r])
    k = next(k for k, l in enumerate(form) if abs(l) - 1 == g)
    rest = form[k + 1 :] + form[:k]
    replacement = rest if form[k] < 0 else invert(rest)
    inverse = invert(replacement)
    for i, c in rels.forms.items():
        w = decode(c)
        if i != r and any(abs(l) - 1 == g for l in w):
            out = []
            for l in w:
                out.extend((replacement if l > 0 else inverse) if abs(l) - 1 == g else (l,))
            if len(cyclic_reduce(out)) > rels.max_len:
                return True
    return False


def _check_bookkeeping(rels):
    """Asserts the bookkeeping of ``rels``; returns the number of
    remembered rejections it checked."""
    kept = (rels.ids, {x: s for x, s in rels.containing.items() if s}, rels.short)
    assert kept == _recount(rels)
    for g, rs in rels.rejected.items():
        for r in rs:
            assert _gen_counts(rels.forms[r]).get(g) == 1 and _still_rejected(rels, r, g)
    counted = {i: cnt for i, (_, cnt) in rels.counted.items()}
    kept_long = (counted, {g: k for g, k in rels.occ.items() if k}, rels.singles, rels.long_usable)
    assert kept_long == _recount_long(rels)
    return sum(map(len, rels.rejected.values()))


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
    eliminate, count = tietze._Relators.eliminate, tietze._Relators._count
    checked, rejections = [], []

    def checked_eliminate(rels, r, rewritten):
        eliminate(rels, r, rewritten)
        rejections.append(_check_bookkeeping(rels))
        checked.append(r)

    def checked_count(rels):
        count(rels)
        assert not rels.dirty
        _check_bookkeeping(rels)

    monkeypatch.setattr(tietze._Relators, "eliminate", checked_eliminate)
    monkeypatch.setattr(tietze._Relators, "_count", checked_count)
    prop2 = build_prop2_instance(CoxeterMatrix.from_pairs(4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}), (2, 4, 6, 2))
    cases = [
        (raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).presentation, bound)
        for inst in (build_thm1_instance(_chain(4), (2,) * 4), prop2, DIGEST_CASES["chain5"]())
        for bound in DIGEST_BOUNDS
    ]
    cases += [(LONG_ELIMINATIONS, DEFAULT_MAX_RELATOR_LENGTH), (BLOCKED_SHORT, 4)]
    for p, bound in cases:
        before = len(checked)
        out, trace = simplify(p, bound)
        assert len(checked) - before == sum(1 for s in trace.steps if s[0] == "eliminate") > 0
    assert sum(rejections) > 0


# Simplify output pinned by digests taken from the whole-presentation
# implementation that re-normalized every relator after each elimination.
# The first two digests per case are for DIGEST_BOUNDS in order, each
# covering str(presentation), trace.steps, trace.defining and
# trace.bounded.  The third covers the text of the presentation with
# involution signs flipped, as verify compares it.  chain5 at the first
# bound runs to 5 generators and equals
# tests/oracles.py::reference_simplify, which takes about 30 s there.
DIGEST_BOUNDS = (DEFAULT_MAX_RELATOR_LENGTH, 7)


def _chain(n):
    return CoxeterMatrix.from_pairs(n, {(i, i + 1): 4 for i in range(n - 1)})


DIGEST_CASES = {
    "thm1-m2x2_4": lambda: build_thm1_instance(_chain(2), (2, 2)),
    "thm1-m2x2_4-33": lambda: build_thm1_instance(_chain(2), (3, 3)),
    "prop2-rank1": lambda: build_prop2_instance(CoxeterMatrix.from_rows([[1]]), (4,)),
    "prop2-m2x2_3": lambda: build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2)),
    "prop2-m2x2_3-44": lambda: build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (4, 4)),
    "thm1-m3x3_right_angled": lambda: build_thm1_instance(
        CoxeterMatrix.from_rows([[1, 2, INF], [2, 1, 2], [INF, 2, 1]]), (2, 2, 2)
    ),
    "klein": build_klein_instance,
    "artin-3": lambda: build_artin_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3})),
    # 289 -> 5 generators
    "chain5": lambda: build_thm1_instance(_chain(5), (2,) * 5),
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
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_simplify_output_pinned(case):
    inst = DIGEST_CASES[case]()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).presentation
    records = []
    for bound in DIGEST_BOUNDS:
        out, trace = simplify(raw, bound)
        records.append(repr((str(out), trace.steps, trace.defining, trace.bounded)))
    records.append(str(_flip_involutions(simplify(raw)[0])))
    got = tuple(hashlib.sha256(record.encode()).hexdigest() for record in records)
    assert got == SIMPLIFY_DIGESTS[case]
