"""The value classes: equality, hashing, repr, immutability and copies.

Each of the ten value types equals another of its class with equal
fields and nothing else, hashes as the tuple of its fields (or refuses to,
where a field holds a dict), shows as ``Name(field=value, ...)``, rejects
assignment and deletion of a field, and survives ``copy.copy``,
``copy.deepcopy`` and a pickle round trip.  The shared constructor binds
fields in ``__slots__`` order, positionally or by name, and a class with
its own constructor takes its fields in that order.
"""

import copy
import inspect
import pickle

import pytest

from coxembed.presentations import (
    INF,
    CoxeterMatrix,
    HomZ2n,
    PcSpec,
    Presentation,
    build_artin_inversion_instance,
    build_klein_instance,
)
from coxembed.schreier import evaluated_kernel_presentation, raw_kernel_presentation
from coxembed.verify import AbelianInvariants, todd_coxeter, verify_instance
from oracles import fields, replace


def _inversion():
    return build_artin_inversion_instance(CoxeterMatrix.from_pairs(1, {}))


def _raw(inst):
    return raw_kernel_presentation(inst.ambient, inst.hom, inst.transversal_gens)


# per type: a builder of one value, called twice for two equal values, a
# builder of an unequal value of the same type, the exact repr of the
# first value, and whether it hashes
CASES = {
    "Presentation": (
        lambda: Presentation(("a", "b"), ((1, 1), (1, 2, -1, -2))),
        lambda: Presentation(("a", "b"), ((1, 1),)),
        "Presentation(gens=('a', 'b'), relators=((1, 1), (1, 2, -1, -2)))",
        True,
    ),
    "CoxeterMatrix": (
        lambda: CoxeterMatrix.from_pairs(2, {(0, 1): INF}),
        lambda: CoxeterMatrix.from_pairs(2, {(0, 1): 3}),
        "CoxeterMatrix(entries=((1, inf), (inf, 1)))",
        True,
    ),
    "PcSpec": (
        lambda: PcSpec.from_pairs(2, {(0, 1): 2}, (2, INF)),
        lambda: PcSpec.from_pairs(2, {(0, 1): 2}, (2, 2)),
        "PcSpec(powers=((inf, 2), (2, inf)), orders=(2, inf))",
        True,
    ),
    "HomZ2n": (
        lambda: HomZ2n(2, (1, 2, 3)),
        lambda: HomZ2n(3, (1, 2, 3)),
        "HomZ2n(n=2, images=(1, 2, 3))",
        True,
    ),
    "EmbeddingInstance": (
        _inversion,
        build_klein_instance,
        "EmbeddingInstance(family='artin-inversion', ambient=Presentation(gens=('r', 's1'), "
        "relators=((1, 1), (2, 2))), hom=HomZ2n(n=1, images=(1, 1)), transversal_gens=(0,), "
        "commuting=frozenset(), expected_kernel=Presentation(gens=('a1',), relators=()), "
        "expected_words=((2, 1),), params={'m': [[1]]})",
        False,
    ),
    "SchreierGen": (
        lambda: _raw(_inversion()).table[0],
        lambda: _raw(_inversion()).table[1],
        "SchreierGen(name='y0_s1', coset_word=(), gen=1, defining=(2, -1))",
        True,
    ),
    "KernelPresentation": (
        lambda: _raw(_inversion()),
        lambda: evaluated_kernel_presentation(_inversion()),
        "KernelPresentation(presentation=Presentation(gens=('y0_s1', 'y1_r', 'y1_s1'), "
        "relators=((2,), (1, 3), (2,), (3, 1))), table=(SchreierGen(name='y0_s1', "
        "coset_word=(), gen=1, defining=(2, -1)), SchreierGen(name='y1_r', coset_word=(1,), "
        "gen=0, defining=(1, 1)), SchreierGen(name='y1_s1', coset_word=(1,), gen=1, "
        "defining=(1, 2))))",
        True,
    ),
    "CosetTable": (
        lambda: todd_coxeter(Presentation(("a",), ((1, 1),))),
        lambda: todd_coxeter(Presentation(("a",), ((1, 1, 1),))),
        "CosetTable(status='complete', num_cosets=2, num_defined=2, fwd=((1, 0),), bwd=((1, 0),))",
        True,
    ),
    "AbelianInvariants": (
        lambda: AbelianInvariants(1, (2, 4)),
        lambda: AbelianInvariants(1, (2, 8)),
        "AbelianInvariants(free_rank=1, torsion=(2, 4))",
        True,
    ),
    "VerifyReport": (
        lambda: verify_instance(_inversion()),
        lambda: verify_instance(build_klein_instance(), max_cosets=5_000),
        "VerifyReport(family='artin-inversion', params={'m': [[1]]}, image_rank=1, "
        "evaluated_generators=1, evaluated_relator_nf_match=True, "
        "raw_generators_after_simplify=1, raw_matched=True, finite=None, split_section=True, "
        "verdict='pass')",
        False,
    ),
}
TYPES = sorted(CASES)


@pytest.mark.parametrize("name", TYPES)
def test_equality_is_by_class_and_fields(name):
    build, build_other, _, _ = CASES[name]
    value, twin, other = build(), build(), build_other()
    assert type(value).__name__ == type(other).__name__ == name
    assert value is not twin
    assert value == twin and not value != twin
    assert value != other and not value == other
    # nothing of another class is equal, not even the tuple of the fields
    # or another value type
    assert value != tuple(fields(value).values())
    stranger = CASES[TYPES[TYPES.index(name) - 1]][0]()
    assert value != stranger and stranger != value


@pytest.mark.parametrize("name", TYPES)
def test_hash_is_the_hash_of_the_fields(name):
    build, _, _, hashable = CASES[name]
    value = build()
    if hashable:
        assert hash(value) == hash(build()) == hash(tuple(fields(value).values()))
    else:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)


@pytest.mark.parametrize("name", TYPES)
def test_repr_names_every_field(name):
    build, _, text, _ = CASES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", TYPES)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0]()
    for field, old in fields(value).items():
        with pytest.raises(AttributeError):
            setattr(value, field, old)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is old
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("name", TYPES)
def test_copies_and_pickles_are_equal(name):
    value = CASES[name][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("name", TYPES)
def test_constructors_take_the_fields_in_slots_order(name):
    # copies and pickles pass the fields in order to the class
    cls = type(CASES[name][0]())
    if "__init__" in vars(cls):
        assert list(inspect.signature(cls).parameters) == list(cls.__slots__)


# the classes built by the shared constructor alone
PLAIN = ("CosetTable", "KernelPresentation", "VerifyReport")


@pytest.mark.parametrize("name", PLAIN)
def test_shared_constructor_binds_fields_by_position_or_name(name):
    value = CASES[name][0]()
    cls, named = type(value), fields(value)
    assert "__init__" not in vars(cls)
    first, *rest = named
    assert cls(*named.values()) == cls(**named) == value
    assert cls(named[first], **{field: named[field] for field in rest}) == value
    # replace round-trips through the constructor
    other = CASES[name][1]()
    field = next(field for field in named if getattr(other, field) != named[field])
    changed = replace(value, **{field: getattr(other, field)})
    assert changed != value
    assert replace(changed, **{field: named[field]}) == value


@pytest.mark.parametrize("name", PLAIN)
def test_shared_constructor_rejects_missing_unknown_and_repeated_fields(name):
    value = CASES[name][0]()
    cls, named = type(value), fields(value)
    values, last = list(named.values()), list(named)[-1]
    message = f"{name} takes the fields {', '.join(named)}, each once"
    for args, kwargs in (
        (values[:-1], {}),  # missing
        (values, {"extra": 1}),  # unknown
        (values, {last: values[-1]}),  # repeated
        (values + [None], {}),  # one past the last
    ):
        with pytest.raises(TypeError) as err:
            cls(*args, **kwargs)
        assert str(err.value) == message
