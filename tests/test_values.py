"""The value classes against their frozen-dataclass twins (tests/util.py):
construction by position and by keyword, ==, != and hash, repr, and
frozenness, on sample values of all nine classes."""

import copy
import pickle
from fractions import Fraction

import pytest

from orthoapart.apartments import Apartment, Labeling, PairIndex
from orthoapart.compatibility import Frame
from orthoapart.operators import ClassDescriptor, SpectralOperator
from orthoapart.rigidity import FiniteTransformation, GramWitness
from orthoapart.scalars import GaussianRational, _make
from orthoapart.subspaces import Subspace

from util import TWINS

CLS = ClassDescriptor(3, (1, 2), (1, 1))
LINES = [Subspace.coordinate(2, [i]) for i in range(2)]

# (class, positional arguments); keyword construction uses the field names
SAMPLES = [
    (GaussianRational, ()),
    (GaussianRational, (Fraction(1, 2),)),
    (GaussianRational, (1, -3)),
    (GaussianRational, (Fraction(2, 4), 0)),
    (ClassDescriptor, (6, (1, 2), (1, 1))),
    (ClassDescriptor, (6, [Fraction(1), "2"], [1, 1])),
    (ClassDescriptor, (6, (Fraction(1, 2), 2), (2, 1))),
    (SpectralOperator, (CLS, [(1, Subspace.coordinate(3, [0])), ("2", Subspace.coordinate(3, [1]))])),
    (Frame, (2, LINES)),
    (Frame, (2, LINES[::-1])),
    (Apartment, (Frame.standard(3), CLS)),
    (PairIndex, (3, 1)),
    (PairIndex, (1, 3)),
    (PairIndex, (0, 2)),
    (Labeling, ([0, None, 1],)),
    (Labeling, ((0, None, 1),)),
    (Labeling, ((None, 0, 1),)),
    (FiniteTransformation, (CLS, (0, 1), (1, 0))),
    (FiniteTransformation, (CLS, [0, 1], [0, 1])),
    (GramWitness, (0, 1, Fraction(1), Fraction(2))),
    (GramWitness, (0, 1, Fraction(1), Fraction(3))),
]


def fields(twin):
    return list(twin.__dataclass_fields__)


def outcome(f):
    """f()'s value, or the type of the exception it raised."""
    try:
        return f()
    except Exception as exc:
        return type(exc)


def built():
    """Each sample built four ways: (real, twin) by position and by keyword."""
    for cls, args in SAMPLES:
        twin = TWINS[cls]
        keywords = dict(zip(fields(twin), args))
        yield cls(*args), twin(*args)
        yield cls(**keywords), twin(**keywords)


def test_every_value_class_has_a_twin_with_its_fields():
    assert {cls for cls, _ in SAMPLES} == set(TWINS)
    for cls, twin in TWINS.items():
        assert cls.__slots__ == tuple(fields(twin))
    for real, _ in built():
        assert not hasattr(real, "__dict__")


def test_construction_fields_and_repr_match_the_twins():
    for real, twin in built():
        assert [getattr(real, f) for f in fields(twin)] == [getattr(twin, f) for f in fields(twin)]
        assert repr(real) == repr(twin)
        assert outcome(lambda: hash(real)) == outcome(lambda: hash(twin))
    assert PairIndex(3, 1).i == 1 and PairIndex(3, 1).j == 3
    assert repr(GaussianRational()) == "GaussianRational(Fraction(0, 1), Fraction(0, 1))"


def test_equality_matches_the_twins():
    pairs = list(built())
    others = [None, 0, 1, Fraction(1, 2), "1", (1, 3), CLS.dims]
    for real, twin in pairs:
        for real_other, twin_other in pairs:
            assert (real == real_other) == (twin == twin_other), (real, real_other)
            assert (real != real_other) == (twin != twin_other), (real, real_other)
            assert real.__eq__(real_other) == twin.__eq__(twin_other), (real, real_other)
        for other in others:
            assert (real == other) == (twin == other) and (real != other) == (twin != other)
            assert real.__eq__(other) == twin.__eq__(other), (real, other)


def test_make_builds_the_same_scalar():
    for re, im in ((Fraction(0), Fraction(0)), (Fraction(3, 7), Fraction(0)),
                   (Fraction(-1), Fraction(5, 2))):
        z, twin = _make(re, im), TWINS[GaussianRational](re, im)
        assert z == GaussianRational(re, im)
        assert (repr(z), hash(z)) == (repr(twin), hash(twin))


def test_values_are_frozen():
    for real, twin in built():
        for name in fields(twin) + ["other"]:
            for obj in (real, twin):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert [getattr(real, f) for f in fields(twin)] == [getattr(twin, f) for f in fields(twin)]


def test_copies_and_pickles_are_equal():
    # the renamed twins cannot be pickled under their module name
    for real, twin in built():
        for obj in (real, twin):
            assert copy.copy(obj) == obj
            assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(real)) == real
