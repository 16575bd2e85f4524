"""Exact Gaussian-rational scalars.

A scalar is a complex number whose real and imaginary parts are both
arbitrary-precision rationals (``fractions.Fraction``).  This subfield of the
complex numbers is closed under conjugation, the four field operations, and
inversion of nonzero elements, so every computation in the package stays
exact; there is no tolerance parameter anywhere.  Matrices take scalars in
and hand them out, but store integer numerators over a common denominator.

Text format: ``"p/q"`` or ``"p/q+r/s i"`` (signs allowed, whitespace
ignored, trailing ``i`` marks the imaginary term).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

from .errors import Value

Rational = Union[int, Fraction]

_FZERO = Fraction(0)


def _make(re: Fraction, im: Fraction) -> "GaussianRational":
    # internal fast path: both arguments are already Fractions
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


class GaussianRational(Value):
    __slots__ = ("re", "im")

    def __init__(self, re: Rational = _FZERO, im: Rational = _FZERO):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    # -- field operations -------------------------------------------------

    def __add__(self, other):
        other = as_scalar(other)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __sub__(self, other):
        other = as_scalar(other)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other) + (-self)

    def __mul__(self, other):
        other = as_scalar(other)
        if not self.im and not other.im:
            return _make(self.re * other.re, _FZERO)
        return _make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        n = other.re * other.re + other.im * other.im  # |other|^2, rational
        if not n:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    # -- predicates & comparisons -----------------------------------------

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # hash-compatible with plain rationals when the value is real
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- text format -------------------------------------------------------

    def __str__(self):
        (a, b), (c, d) = self.re.as_integer_ratio(), self.im.as_integer_ratio()
        return scalar_text(a * d, c * b, b * d)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _ratio_text(p: int, q: int) -> str:
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def scalar_text(re: int, im: int, den: int) -> str:
    """The text form of (re + im i)/den, den > 0: "p/q" or "p/q+r/si", each
    part in lowest terms and "/1" omitted, a zero part omitted unless both are."""
    if not im:
        return _ratio_text(re, den)
    sign = "+" if re and im > 0 else ""
    return (_ratio_text(re, den) if re else "") + sign + _ratio_text(im, den) + "i"


def as_scalar(x) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational to a scalar."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(Fraction(x))
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


def parse_scalar(text: str) -> GaussianRational:
    """Parse the ``"p/q"`` / ``"p/q+r/s i"`` text form.  Whitespace is ignored.
    Malformed text, a zero denominator included, raises ValueError.  So does
    an exponent form such as ``"1e300000"``, whose expansion alone could
    take minutes."""
    try:
        return _parse_scalar(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {text!r}") from None


def plain_ratio(s: str) -> Optional[Tuple[int, int]]:
    """(p, q) by int() for plain ASCII text p or p/q with q > 0, else None
    (also past int()'s digit limit, where Fraction(s) says why)."""
    p, slash, q = s.partition("/")
    digits = p[1:] if p[:1] in ("+", "-") else p
    if not (s.isascii() and digits.isdigit() and (q.isdigit() or not slash)):
        return None
    try:
        p, q = int(p), int(q or 1)
    except ValueError:
        return None
    return (p, q) if q else None


def _rational(s: str) -> Fraction:
    """Fraction(s), by int() for plain ASCII p or p/q: same values and errors."""
    pq = plain_ratio(s)
    return Fraction(*pq) if pq else Fraction(s)


def _parse_scalar(text: str) -> GaussianRational:
    s = "".join(text.split())
    if not s:
        raise ValueError("empty scalar string")
    if "e" in s or "E" in s:
        raise ValueError(f"exponent forms are not exact scalars: {text!r}")
    if not s.endswith("i"):
        return _make(_rational(s), _FZERO)
    body = s[:-1]
    # split real from imaginary at the last top-level sign (index >= 1)
    split = max(body.rfind("+", 1), body.rfind("-", 1))
    if split == -1:
        real, imag = "", body
    else:
        real, imag = body[:split], body[split:]
    if imag in ("", "+"):
        im = Fraction(1)
    elif imag == "-":
        im = Fraction(-1)
    else:
        im = _rational(imag)
    return _make(_rational(real) if real else _FZERO, im)
