"""Dense exact matrices over the Gaussian rationals, computed in integers.

A matrix is integer rows ``re`` and ``im`` (None when real) over one
denominator ``den > 0``, with gcd(den, entries) = 1: one representation per
value, so equality and hashing are tuple compares.  `GaussianRational` is
the boundary type of the constructors and of entry access.  Matrices are
immutable.  A matrix is a boundary form: subspaces and their predicates
read orthogonal integer columns, which `gram_schmidt` builds from any
integer columns, and only a projection asked for (`projection_matrix`, the
sum P = sum (L/d) u u* over L = lcm(d = u*u)) or an operator's matrix is
one.  `rref` and `inverse` are fraction-free Gauss-Jordan (Bareiss 1968)
pivoting on the first nonzero entry of each column; a complex matrix is
eliminated as its real embedding, a + bi becoming [[a, -b], [b, a]], whose
reduced form embeds the complex one (so complex column j is a pivot iff real
column 2j is).  The subspace lattice uses neither.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, SingularMatrix
from .scalars import GaussianRational, _make as _scalar, as_scalar

Vector = Tuple[GaussianRational, ...]
Rows = Optional[Sequence[Sequence[int]]]  # None is a zero imaginary part


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def _comb(s: int, x: Rows, t: int = 0, y: Rows = None) -> Rows:
    """s*x + t*y entrywise."""
    if y is None or not t:
        return None if x is None else [[s * a for a in r] for r in x]
    if x is None:
        return [[t * b for b in r] for r in y]
    return [[s * a + t * b for a, b in zip(r, q)] for r, q in zip(x, y)]


def _mul(x: Rows, y: Rows, cols: int) -> list:
    """Integer product, skipping zero entries of x: projections are often sparse."""
    out = []
    for r in x:
        acc = [0] * cols
        for a, yrow in zip(r, y):
            if a:
                acc = [p + a * b for p, b in zip(acc, yrow)]
        out.append(acc)
    return out


def _bareiss(m: List[list], ncols: int) -> Tuple[int, List[int]]:
    """Fraction-free Gauss-Jordan on integer rows, in place.  Returns the last
    pivot d and the pivot columns; m ends as d times the reduced row echelon
    form.  Each division is exact: every entry is a minor of the input."""
    prev, pivots = 1, []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        prow, p = m[r], m[r][c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and (f or p != prev):
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
        pivots.append(c)
        prev = p
    return prev, pivots


class Matrix:
    __slots__ = ("rows", "cols", "_den", "_re", "_im")

    def __init__(self, rows_of_entries: Sequence[Sequence]):
        data = [[as_scalar(e) for e in row] for row in rows_of_entries]
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatch("ragged rows")
        flat = list(chain.from_iterable(data))
        den = lcm(*(x.re.denominator for x in flat), *(x.im.denominator for x in flat))
        re = [[x.re.numerator * (den // x.re.denominator) for x in r] for r in data]
        im = [[x.im.numerator * (den // x.im.denominator) for x in r] for r in data]
        self._set(den, re, im, len(data), len(data[0]) if data else 0)

    def _set(self, den: int, re: Rows, im: Rows, rows: int, cols: int) -> None:
        # the one normalization; a negative den negates the numerators
        if im is not None and not any(map(any, im)):
            im = None
        g = gcd(den, *chain.from_iterable(re), *chain.from_iterable(im or ()))
        g = -g if den < 0 else g
        cut = tuple if g == 1 else (lambda r: tuple(a // g for a in r))
        self._den = den // g
        self._re = tuple(map(cut, re))
        self._im = None if im is None else tuple(map(cut, im))
        self.rows, self.cols = rows, cols

    # -- constructors ------------------------------------------------------

    @classmethod
    def _make(cls, den: int, re: Rows, im: Rows, rows: int, cols: int) -> "Matrix":
        m = cls.__new__(cls)
        m._set(den, re, im, rows, cols)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._make(1, [[0] * cols for _ in range(rows)], None, rows, cols)

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        im = 0 if self._im is None else self._im[i][j]
        return _scalar(Fraction(self._re[i][j], self._den), Fraction(im, self._den))

    def integer_columns(self) -> Iterator[tuple]:
        """The columns' numerators over the one denominator."""
        return zip(zip(*self._re), repeat(None) if self._im is None else zip(*self._im))

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        self._same_shape(other)
        den = lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        re, im = _comb(s, self._re, t, other._re), _comb(s, self._im, t, other._im)
        return Matrix._make(den, re, im, self.rows, self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix._make(-self._den, self._re, self._im, self.rows, self.cols)

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        cd = lcm(c.re.denominator, c.im.denominator)
        cr, ci = c.re.numerator * cd // c.re.denominator, c.im.numerator * cd // c.im.denominator
        re, im = _comb(cr, self._re, -ci, self._im), _comb(cr, self._im, ci, self._re)
        return Matrix._make(self._den * cd, re, im, self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        n, (ar, ai), (br, bi) = other.cols, (self._re, self._im), (other._re, other._im)
        re = _mul(ar, br, n)
        if ai is not None and bi is not None:
            re = _comb(1, re, -1, _mul(ai, bi, n))
        im = _comb(1, ai and _mul(ai, br, n), 1, bi and _mul(ar, bi, n))
        return Matrix._make(self._den * other._den, re, im, self.rows, other.cols)

    # -- predicates --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._den == other._den and self._re == other._re and self._im == other._im

    def __hash__(self):
        return hash((self._den, self._re, self._im))

    # -- elimination -------------------------------------------------------

    def rref(self) -> Tuple["Matrix", Tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        Pivoting takes the first nonzero entry in each column, which is exact
        over the rationals.
        """
        if self._im is None:
            m = [list(r) for r in self._re]
            d, pivots = _bareiss(m, self.cols)
            return Matrix._make(d, m, None, self.rows, self.cols), tuple(pivots)
        m = []
        for a, b in zip(self._re, self._im):
            m.append([x for p, q in zip(a, b) for x in (p, -q)])
            m.append([x for p, q in zip(a, b) for x in (q, p)])
        d, pivots = _bareiss(m, 2 * self.cols)
        re, im = [r[0::2] for r in m[0::2]], [[-x for x in r[1::2]] for r in m[0::2]]
        return Matrix._make(d, re, im, self.rows, self.cols), tuple(p // 2 for p in pivots[0::2])

    def inverse(self) -> "Matrix":
        """The inverse, read off the reduced form of [A | I]."""
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        re = [list(r) + [self._den * (i == j) for j in range(n)] for i, r in enumerate(self._re)]
        im = self._im and [list(r) + [0] * n for r in self._im]
        r, pivots = Matrix._make(self._den, re, im, n, 2 * n).rref()
        if pivots != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        right = lambda x: x and [row[n:] for row in x]  # noqa: E731
        return Matrix._make(r._den, right(r._re), right(r._im), n, n)

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        body = "; ".join(" ".join(str(self[i, j]) for j in range(self.cols)) for i in range(self.rows))
        return f"Matrix[{self.rows}x{self.cols}]({body})"

    def _same_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")


def column_inner(u: Sequence, v: Sequence) -> Tuple[int, int]:
    """The real and imaginary parts of u*v, for columns (re, im, ...)."""
    if u[1] is None and v[1] is None:
        return sum(map(mul, u[0], v[0])), 0
    dot = lambda x, y: 0 if x is None or y is None else sum(map(mul, x, y))  # noqa: E731
    return dot(u[0], v[0]) + dot(u[1], v[1]), dot(u[0], v[1]) - dot(u[1], v[0])


def _axpy(x: Optional[list], t: int, y: Optional[Sequence[int]]) -> Optional[list]:
    """x + t*y, None standing for zero."""
    if y is None or not t:
        return x
    return [t * b for b in y] if x is None else [a + t * b for a, b in zip(x, y)]


def _addmul(v: tuple, a: int, b: int, u: Sequence) -> tuple:
    """v + (a + bi) u for columns (re, im, ...), None standing for a zero imaginary part."""
    (vr, vi), ur, ui = v, u[0], u[1]
    return _axpy(_axpy(vr, a, ur), -b, ui), _axpy(_axpy(vi, a, ui), b, ur)


def _primitive(vr: Sequence[int], vi: Optional[Sequence[int]]) -> tuple:
    """The column over the gcd of its entries (a zero column stays zero)."""
    g = gcd(*vr, *(vi or ())) or 1
    return [a // g for a in vr], [a // g for a in vi] if vi and any(vi) else None


def gram_schmidt(columns: Iterable[tuple]) -> Iterator[tuple]:
    """Fraction-free Gram-Schmidt, lazily: orthogonal primitive columns (re, im,
    d = u*u) spanning the columns.  Against each earlier u, v becomes d v - (u*v) u,
    made primitive again so entries do not grow; a dependent column becomes 0."""
    out: list = []
    for v in columns:
        v = _primitive(*v)
        for ur, ui, d in out:
            (vr, vi), (cr, ci) = v, column_inner((ur, ui), v)
            if cr or ci:  # d v - (cr + i ci)(ur + i ui)
                v = _primitive(_axpy([d * a - cr * b for a, b in zip(vr, ur)], ci, ui),
                               _axpy(_axpy(vi and [d * a for a in vi], -cr, ui), -ci, ur))
        d = column_inner(v, v)[0]
        if d:
            out.append((*v, d))
            yield out[-1]


def projection_matrix(basis: Sequence[tuple], n: int) -> Matrix:
    """P = sum u u*/d over pairwise orthogonal columns (re, im, d), d = u*u,
    as the integers sum (L/d) u u* over L = lcm(d)."""
    den = lcm(*(d for _, _, d in basis))
    re = [[0] * n for _ in range(n)]
    im = None if all(ui is None for _, ui, _ in basis) else [[0] * n for _ in range(n)]
    for ur, ui, d in basis:
        s = den // d
        for r in range(n):
            a, b = s * ur[r], ui and s * ui[r]
            re[r] = _axpy(re[r], a, ur)
            if ui:
                re[r], im[r] = _axpy(re[r], b, ui), _axpy(_axpy(im[r], b, ur), -a, ui)
    return Matrix._make(den, re, im, n, n)
