from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthoapart.scalars import GaussianRational, as_scalar, parse_scalar

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(Fraction(-2), Fraction(1))
    assert a + b == GaussianRational(Fraction(-3, 2), Fraction(4, 3))
    assert a * b == GaussianRational(Fraction(-4, 3), Fraction(-1, 6))
    assert (a / a) == 1
    assert a - a == 0


def test_conjugation_and_norm():
    z = GaussianRational(Fraction(3, 4), Fraction(-2, 5))
    assert z.conjugate().conjugate() == z
    assert z * z.conjugate() == GaussianRational(z.norm_sq())


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        as_scalar(1) / GaussianRational()


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", GaussianRational(Fraction(3))),
        ("-1/2", GaussianRational(Fraction(-1, 2))),
        ("1/2+1/3i", GaussianRational(Fraction(1, 2), Fraction(1, 3))),
        ("1/2 - 1/3 i", GaussianRational(Fraction(1, 2), Fraction(-1, 3))),
        ("i", GaussianRational(Fraction(0), Fraction(1))),
        ("-i", GaussianRational(Fraction(0), Fraction(-1))),
        ("2i", GaussianRational(Fraction(0), Fraction(2))),
        (" -3/7 + 2/9 i ", GaussianRational(Fraction(-3, 7), Fraction(2, 9))),
    ],
)
def test_parse(text, expected):
    assert parse_scalar(text) == expected


def test_parse_rejects_garbage():
    for bad in ["", "1//2", "1+2", "one"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(bad)


def test_parse_rejects_exponent_forms():
    for bad in ["1e3", "1E3", "-2/3e5", "1e300000", "1+1e3i"]:
        with pytest.raises(ValueError, match="exponent"):
            parse_scalar(bad)


@given(scalars)
def test_text_round_trip(z):
    assert parse_scalar(str(z)) == z


@given(scalars, scalars)
def test_field_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    if not b.is_zero:
        assert (a / b) * b == a


@given(scalars)
def test_inversion_closed(z):
    if not z.is_zero:
        inv = as_scalar(1) / z
        assert z * inv == 1
