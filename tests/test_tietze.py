import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from coxembed.schreier import raw_kernel_presentation
from coxembed.tietze import (
    SimplifyConfig,
    eliminate_generator,
    normalize_relators,
    simplify,
)
from coxembed.verify import abelianization, group_order, match_presentations
from coxembed.words import commutator, power, relator_nf
from oracles import reference_simplify


def test_normalize_relators_merges_variants():
    p = Presentation(("a", "b"), ((2, 1, 2, -1), (-1, 2, 1, 2)))
    assert len(normalize_relators(p).relators) == 1

    q = Presentation(("a",), ((1, -1),))
    assert normalize_relators(q).relators == ()

    r = Presentation(
        ("a", "b"),
        (power(commutator((1,), (-2,)), 2), power(commutator((1,), (2,)), 2)),
    )
    assert len(normalize_relators(r).relators) == 1


def test_normalize_relators_sorted_deterministically():
    p = Presentation(("a", "b"), ((1, 2, 1, 2), (2, 2), (1, 1)))
    n = normalize_relators(p)
    assert [len(r) for r in n.relators] == [2, 2, 4]
    assert n.relators[0] == (1, 1)


def test_eliminate_examples():
    p = parse_presentation("< a, b | b a^-1 >")
    out = eliminate_generator(p, 1, 0)
    assert serialize_presentation(out) == "< a | >"

    q = parse_presentation("< s, t | s t, s^2 >")
    out = eliminate_generator(q, 1, 0)
    assert serialize_presentation(out) == "< s | s^2 >"

    with pytest.raises(ValueError):
        eliminate_generator(parse_presentation("< a, b | a b a b >"), 0, 0)


def test_eliminate_prop2_order_one_pairs():
    # with (s_i t_i)^1 relators the t_i are redundant; solving for them
    # substitutes s_i^-1, so recovering the Coxeter presentation verbatim
    # needs the involution sign rewrite on top of the eliminations
    inst = build_prop2_instance(CoxeterMatrix.from_pairs(2, {(0, 1): 3}), (2, 2))
    kernel = inst.expected_kernel
    target = coxeter_presentation(CoxeterMatrix.from_pairs(2, {(0, 1): 3}))
    simplified, _ = simplify(kernel, SimplifyConfig(involution_flips=True))
    assert match_presentations(simplified, target) is not None
    plain, _ = simplify(kernel)
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
    assert simplified == normalize_relators(p)
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
    initial_max = max(len(r) for r in normalize_relators(raw.presentation).relators)
    cfg = SimplifyConfig(max_relator_length=4)
    simplified, _ = simplify(raw.presentation, cfg)
    assert max(len(r) for r in simplified.relators) <= max(4, initial_max)


def test_simplify_length_bound_sets_bounded():
    # the 2x2 fixture's raw kernel needs relators longer than 6 to finish,
    # so simplify stops early and says so
    inst = thm1_fixture()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)
    simplified, trace = simplify(raw.presentation, SimplifyConfig(max_relator_length=6))
    assert simplified.rank == 13
    assert trace.bounded is True


def test_simplify_config_validation():
    with pytest.raises(ValueError):
        SimplifyConfig(max_relator_length=0)


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


def test_simplify_flips_relators_for_a_square_made_by_elimination():
    # eliminating a makes c^2 a relator; the untouched b c b c^-1 must
    # then flip to b c b c, as re-normalizing everything would
    p = parse_presentation("< a, b, c | a c, a c^-1, b c b c^-1 >")
    out, trace = simplify(p, SimplifyConfig(involution_flips=True))
    assert str(out) == "< b, c | c^2, b c b c >"
    assert (str(out), trace.steps, trace.defining, trace.bounded) == reference_simplify(p, flips=True)


@st.composite
def presentations_with_squares(draw):
    p = draw(random_presentations())
    squares = draw(st.lists(st.integers(1, p.rank), max_size=p.rank))
    return Presentation(p.gens, p.relators + tuple((g, g) for g in squares))


@given(presentations_with_squares(), st.sampled_from([3, 5, 1000]), st.booleans())
@settings(max_examples=300, deadline=None)
def test_simplify_matches_whole_presentation_reference(p, max_len, flips):
    cfg = SimplifyConfig(max_relator_length=max_len, involution_flips=flips)
    out, trace = simplify(p, cfg)
    got = (str(out), trace.steps, trace.defining, trace.bounded)
    assert got == reference_simplify(p, max_len, flips)


# Simplify output pinned by digests taken from the whole-presentation
# implementation that re-normalized every relator after each elimination.
# Each digest covers str(presentation), trace.steps, trace.defining and
# trace.bounded; the three per case are for DIGEST_CONFIGS in order.
# chain5 at the first and third configs runs to 5 generators and equals
# tests/oracles.py::reference_simplify, which takes about 30 s there.
DIGEST_CONFIGS = (
    SimplifyConfig(),
    SimplifyConfig(max_relator_length=7),
    SimplifyConfig(involution_flips=True),
)


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
        "fa3fde80ec6ab31f422aba3a821f486e57aacd50179e91a3a532fa3d8aaf6a29",
        "bac43ec93e17d1f8b0cb2d1ee5b246d7bf0200bce21ef145f73ff416a48c49f2",
    ),
    "thm1-m2x2_4-33": (
        "ff5f0a27efa082cb90782ab085dfe96e06a939722b11a35d53a2ffb6bed7d537",
        "3e94110eed91bb527f180fbcdf5485b68564d9ccd749d96c277bf19e4e2d40a7",
        "ff5f0a27efa082cb90782ab085dfe96e06a939722b11a35d53a2ffb6bed7d537",
    ),
    "prop2-rank1": (
        "cb9eaadb1789645382a6d35b1187ae8814f2cffb7eea50dc7f18f68d42efa5ea",
        "cb9eaadb1789645382a6d35b1187ae8814f2cffb7eea50dc7f18f68d42efa5ea",
        "cb9eaadb1789645382a6d35b1187ae8814f2cffb7eea50dc7f18f68d42efa5ea",
    ),
    "prop2-m2x2_3": (
        "74a98fc591dd3078d572788d56f3bf02ca27916e055b886c3c5ea5e3fa72d2f4",
        "74a98fc591dd3078d572788d56f3bf02ca27916e055b886c3c5ea5e3fa72d2f4",
        "00fd30f14ffd2d8bccd25853d427db6b2d1cb04cc4849eb22c1b2a672b24625b",
    ),
    "prop2-m2x2_3-44": (
        "1e4d8f8ed388e2db27c332d61c1dd5e70772078d9512b06cd0b6ee2e0aa7a51c",
        "9587b3f7c61fbc636092c8fc77c292900080f65c7a46504928d445ffc38fe383",
        "0a2cad0dcb88da7c661250dcd2907983d81f8b3c55a72c748366a182d02e0e0b",
    ),
    "thm1-m3x3_right_angled": (
        "ac691d59f62749189e5d73a9e6582b17cbd2bda3d78a0db436cf6189c33d49bf",
        "ac691d59f62749189e5d73a9e6582b17cbd2bda3d78a0db436cf6189c33d49bf",
        "7ff7bbb4c419d7df27876b754267f3147ba50d9da405441696ddb0d3c2d344c4",
    ),
    "klein": (
        "7b8e02b3bffcecc484c0329fe48a38fc19a5ce638d811641f0f748d209732796",
        "7b8e02b3bffcecc484c0329fe48a38fc19a5ce638d811641f0f748d209732796",
        "7b8e02b3bffcecc484c0329fe48a38fc19a5ce638d811641f0f748d209732796",
    ),
    "artin-3": (
        "725801a8ce3358c1bac2fc80879559cb692b6482c53b7fd3680ef699e143318a",
        "dd565bb92aab71f918a0475ca2c3b8eb098198568a5504470b31047fc76b4ecb",
        "725801a8ce3358c1bac2fc80879559cb692b6482c53b7fd3680ef699e143318a",
    ),
    "chain5": (
        "e557b22f124d54059a151ec852ab8945a1e7dafa284203e7d8e3bec5e92a0ae5",
        "a6a4e1f603f6f8bb62ab84c0001d498ab31d53d37db72be85e8f2f6d479ab183",
        "d731d83e899f2f6c423d8cb61a3f91c49196cadbd11dff6200832740283203e8",
    ),
}


@pytest.mark.parametrize("case", sorted(DIGEST_CASES))
def test_simplify_output_pinned(case):
    inst = DIGEST_CASES[case]()
    raw = raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens).presentation
    got = []
    for cfg in DIGEST_CONFIGS:
        out, trace = simplify(raw, cfg)
        record = repr((str(out), trace.steps, trace.defining, trace.bounded))
        got.append(hashlib.sha256(record.encode()).hexdigest())
    assert tuple(got) == SIMPLIFY_DIGESTS[case]
