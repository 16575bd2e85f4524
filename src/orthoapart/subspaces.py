"""Subspaces of C^n, held as an orthogonal integer basis.

A subspace is its integer Gram-Schmidt basis u: pairwise orthogonal
primitive columns (re, im, d = u*u).  Every predicate and lattice operation
reads bases.  The projection P = sum u u*/d, in integers over one canonical
denominator, is built on first read only where a matrix is the product:
P is canonical, so subspaces are equal iff their projections are, and
equality and hashing read it.  X <= Y when |P_Y v|^2 = v*v for each v of X's
basis, the join is Gram-Schmidt over both bases, the orthocomplement is the
lines of I - P read off the basis by `column_lines`, and
X ^ Y = (X^perp + Y^perp)^perp.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import DimensionMismatch
from .matrices import Matrix, _addmul, _primitive, column_inner, gram_schmidt, projection_matrix, vector


class Subspace:
    __slots__ = ("ambient_dim", "basis", "_proj")

    def __init__(self, proj: Matrix):
        """The subspace onto which proj projects: Gram-Schmidt over its integer
        columns, refusing a matrix that is not the projection onto them."""
        if proj.rows != proj.cols:
            raise DimensionMismatch("projection matrix must be square")
        self.ambient_dim, self.basis = proj.rows, tuple(gram_schmidt(proj.integer_columns()))
        self._proj = projection_matrix(self.basis, proj.rows)
        if self._proj != proj:
            raise ValueError("matrix is not the projection onto its columns; corrupt subspace")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls.spanned_by((), n)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls.coordinate(n, range(n))

    @classmethod
    def spanned_by(cls, basis: Iterable[tuple], n: int) -> "Subspace":
        """The span of pairwise orthogonal primitive columns (re, im, d = u*u) in C^n."""
        x = cls.__new__(cls)
        x.ambient_dim, x.basis, x._proj = n, tuple(basis), None
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
            self._proj = projection_matrix(self.basis, self.ambient_dim)
        return self._proj

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- predicates --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.proj == other.proj

    def __hash__(self):
        return hash(self.proj)

    def contains(self, other: "Subspace") -> bool:
        """other <= self: |P_self v|^2 = v*v for each v of other's basis."""
        self._same_ambient(other)
        big, rows = image_rows(self.basis, other.basis)
        return all(norm == big * v[2] for v, (_, norm) in zip(other.basis, rows))

    def is_orthogonal_to(self, other: "Subspace") -> bool:
        """Every u*v is zero, u and v over the two bases."""
        self._same_ambient(other)
        return not any(any(column_inner(u, v)) for u in self.basis for v in other.basis)

    # -- lattice operations ------------------------------------------------

    def perp(self) -> "Subspace":
        n = self.ambient_dim
        return Subspace.spanned_by(column_lines(self.basis, n, complement=True), n)

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def image_rows(us: Sequence[tuple], vs: Sequence[tuple]) -> Tuple[int, List[tuple]]:
    """L = lcm(d_u) over an orthogonal basis us of U, and for each v of vs its
    inner products u*v with L |P_U v|^2 = sum (L/d_u) |u*v|^2."""
    big, rows = lcm(*(d for *_, d in us)), []
    for v in vs:
        row = [column_inner(u, v) for u in us]
        rows.append((row, sum(big // u[2] * (a * a + b * b) for u, (a, b) in zip(us, row))))
    return big, rows


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
    """Smallest subspace containing both: Gram-Schmidt over both bases."""
    x._same_ambient(y)
    return Subspace.spanned_by(gram_schmidt(u[:2] for u in (*x.basis, *y.basis)), x.ambient_dim)


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
