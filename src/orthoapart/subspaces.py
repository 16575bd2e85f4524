"""Subspaces of C^n, held as an orthogonal integer basis or an exact projection.

A subspace built from spanning vectors holds their integer Gram-Schmidt basis
u, pairwise orthogonal primitive columns (re, im, d = u*u), and builds its
projection P = sum u u*/d, in integers over one canonical denominator, on first
use.  Subspaces are equal iff their projections are; equality, hashing and the
lattice read P.  The join is the projection onto both projections' integer
columns, the orthocomplement is I - P, and X ^ Y = (X^perp + Y^perp)^perp.
"""

from __future__ import annotations

from itertools import islice
from math import lcm
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch
from .matrices import Matrix, _addmul, _primitive, gram_schmidt, projection_matrix, vector


class Subspace:
    __slots__ = ("ambient_dim", "_proj", "_basis")

    def __init__(self, proj: Matrix):
        if proj.rows != proj.cols:
            raise DimensionMismatch("projection matrix must be square")
        self.ambient_dim = proj.rows
        self._proj, self._basis = proj, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(Matrix.zeros(n, n))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls.coordinate(n, range(n))

    @classmethod
    def spanned_by(cls, basis: Sequence[tuple], n: int) -> "Subspace":
        """The span of pairwise orthogonal primitive columns (re, im, d = u*u) in C^n."""
        x = cls.__new__(cls)
        x.ambient_dim, x._proj, x._basis = n, None, tuple(basis)
        return x

    @classmethod
    def coordinate(cls, n: int, indices: Iterable[int]) -> "Subspace":
        """Span of the standard basis vectors e_i for i in indices."""
        idx = set(indices)
        units = [([int(i == j) for i in range(n)], None, 1) for j in range(n) if j in idx]
        return cls.spanned_by(units, n)

    # -- structure ---------------------------------------------------------

    @property
    def proj(self) -> Matrix:
        if self._proj is None:
            self._proj = projection_matrix(self._basis, self.ambient_dim)
        return self._proj

    @property
    def basis(self) -> tuple:
        """Orthogonal primitive columns (re, im, d) spanning it: held, or P's lines."""
        if self._basis is None:
            self._basis = tuple(islice(gram_schmidt(self._proj.integer_columns()), self.dim))
        return self._basis

    @property
    def dim(self) -> int:
        if self._basis is not None:
            return len(self._basis)
        re, im = self.proj.integer_trace()
        if im or re % self.proj.den:
            raise ValueError("projection trace is not an integer; corrupt subspace")
        return re // self.proj.den

    # -- predicates --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.proj == other.proj

    def __hash__(self):
        return hash(self.proj)

    def contains(self, other: "Subspace") -> bool:
        """other <= self, as an exact matrix identity P_self P_other = P_other."""
        self._same_ambient(other)
        return self.proj @ other.proj == other.proj

    def is_orthogonal_to(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return (self.proj @ other.proj).is_zero()

    # -- lattice operations ------------------------------------------------

    def perp(self) -> "Subspace":
        return Subspace(Matrix.identity(self.ambient_dim) - self.proj)

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def projection_of(vectors: Sequence[Sequence], ambient_dim: int | None = None, *,
                  integer: bool = False) -> Subspace:
    """Subspace spanned by the given vectors: P = sum u u*/(u*u), u their Gram-Schmidt basis.

    The result is basis-independent: any spanning set of the same subspace
    yields the identical projection matrix.  With integer=True the vectors are
    integer columns (re, im), each a nonzero multiple of a spanning vector.
    """
    if not integer:  # each vector times the lcm of its denominators
        vecs = [vector(v) for v in vectors]
        dens = [lcm(*(x.re.denominator for x in v), *(x.im.denominator for x in v)) for v in vecs]
        vectors = [([x.re.numerator * (d // x.re.denominator) for x in v],
                    [x.im.numerator * (d // x.im.denominator) for x in v]) for v, d in zip(vecs, dens)]
    cols = list(vectors)
    if cols:
        n = len(cols[0][0])
        if any(len(re) != n for re, _ in cols):
            raise DimensionMismatch("input vectors of unequal length")
        if ambient_dim is not None and ambient_dim != n:
            raise DimensionMismatch("ambient_dim disagrees with vector length")
    else:
        if ambient_dim is None:
            raise DimensionMismatch("ambient_dim required for an empty spanning set")
        n = ambient_dim
    return Subspace.spanned_by(gram_schmidt(cols), n)


def intersect(x: Subspace, y: Subspace) -> Subspace:
    """Set-theoretic intersection, as (x^perp + y^perp)^perp."""
    return span_sum(x.perp(), y.perp()).perp()


def span_sum(x: Subspace, y: Subspace) -> Subspace:
    """Smallest subspace containing both: the span of both projections' columns."""
    x._same_ambient(y)
    cols = [*x.proj.integer_columns(), *y.proj.integer_columns()]
    return projection_of(cols, ambient_dim=x.ambient_dim, integer=True)


def complement_within(x: Subspace, y: Subspace) -> Subspace:
    """x^perp intersected with y, as (x + y^perp)^perp."""
    return span_sum(x, y.perp()).perp()


def column_lines(basis: Sequence[tuple], n: int, complement: bool = False) -> Iterator[tuple]:
    """islice(gram_schmidt(P.integer_columns()), rank) for P = sum u u*/d over an
    orthogonal basis (re, im, d), or for I - P with complement, with no n x n matrix:
    l* P e_j = conj(l_j) for l in the span, so column j less its part on the lines l
    so far is (P - Q) e_j, Q = sum l l*/d_l, of squared norm P_jj - Q_jj."""
    big = lcm(*(d for *_, d in basis))
    p = [0] * n  # P_jj times L
    for ur, ui, d in basis:
        p = [a + big // d * (x * x + (y * y if ui else 0)) for a, x, y in zip(p, ur, ui or ur)]
    sign, want = (-1, n - len(basis)) if complement else (1, len(basis))
    p = [big - a for a in p] if complement else p
    lines: list = []
    m, q = 1, [0] * n  # Q_jj = q[j] / M
    for j in range(n):
        if len(lines) == want:
            return
        if p[j] * m == q[j] * big:
            continue
        v = [big * m * (k == j) for k in range(n)] if complement else [0] * n, None
        for terms, s in ((basis, sign * m * big), (lines, -m * big)):
            for u in terms:  # s/d conj(u_j) u
                v = _addmul(v, s // u[2] * u[0][j], -s // u[2] * u[1][j] if u[1] else 0, u)
        lr, li = _primitive(*v)
        d = sum(a * a for a in lr) + (sum(a * a for a in li) if li else 0)
        lines.append((lr, li, d))
        yield lines[-1]
        if len(lines) < want:
            m, scale = lcm(m, d), lcm(m, d) // m
            q = [a * scale + m // d * (x * x + (y * y if li else 0)) for a, x, y in zip(q, lr, li or lr)]
