from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthoapart import scalars as scalar_module
from orthoapart.scalars import GaussianRational, _rational, as_scalar, parse_scalar

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


def conj(z):
    return GaussianRational(z.re, -z.im)


def test_conjugation_and_norm():
    z = GaussianRational(Fraction(3, 4), Fraction(-2, 5))
    assert z * conj(z) == GaussianRational(z.re * z.re + z.im * z.im) == Fraction(289, 400)
    assert 1 / z == conj(z) / Fraction(289, 400)


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


# signs, leading zeros, underscores, Unicode digits (Arabic-Indic, fullwidth,
# superscript), zero and missing terms, doubled slashes, lone signs,
# whitespace, decimals and numbers past int()'s digit limit
ATOMS = ["", "0", "7", "007", "-3", "+3", "-0", "+-1", "--1", "1_0", "1__0", "_1", "1_",
         "\u0663", "\uff11\uff12", "\u00b2", "+", "-", " 1", "1 ", "\t5", "1.5", ".5", "1.",
         "abc", "0x10", "9" * 4301]
CORPUS = ATOMS + [f"{p}/{q}" for p in ATOMS[:18] for q in ATOMS[:18]] + [
    "1/0", "0/0", "/2", "1/", "1//2", "1/2/3", "1 / 2", "1/-2", "1/+2", "+12/034",
    "-" + "9" * 4301 + "/1", "1/" + "9" * 4301]


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_rational_fast_path_matches_fraction():
    for text in CORPUS:
        assert _outcome(_rational, text) == _outcome(Fraction, text), text


def test_parse_scalar_matches_fraction_parsing(monkeypatch):
    texts = [t for a in CORPUS for t in (a, a + "i", "1+" + a + "i", a + "-2i")]
    fast = [_outcome(parse_scalar, t) for t in texts]
    monkeypatch.setattr(scalar_module, "_rational", Fraction)
    assert fast == [_outcome(parse_scalar, t) for t in texts]


@given(scalars)
def test_text_round_trip(z):
    assert parse_scalar(str(z)) == z


@given(scalars, scalars)
def test_field_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert conj(a * b) == conj(a) * conj(b)
    if b:
        assert (a / b) * b == a


@given(scalars)
def test_inversion_closed(z):
    if z:
        inv = as_scalar(1) / z
        assert z * inv == 1


def test_truth_and_division_values():
    # literal values: no driver of the package reaches __bool__ or division
    assert [bool(x) for x in (GaussianRational(), GaussianRational(0, Fraction(1, 3)),
                              GaussianRational(Fraction(-2)))] == [False, True, True]
    half_third = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert repr(GaussianRational(Fraction(3, 4)) / GaussianRational(Fraction(-2, 5))) == \
        "GaussianRational(Fraction(-15, 8), Fraction(0, 1))"
    assert repr(half_third / GaussianRational(-2, 1)) == \
        "GaussianRational(Fraction(-2, 15), Fraction(-7, 30))"
    assert repr(3 / GaussianRational(0, 2)) == "GaussianRational(Fraction(0, 1), Fraction(-3, 2))"
    for zero in (GaussianRational(), 0):
        with pytest.raises(ZeroDivisionError, match="division by zero scalar"):
            half_third / zero
