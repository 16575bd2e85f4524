"""Subspaces of C^n stored canonically as exact orthogonal projections.

A subspace is represented by its projection matrix P = sum u u*/(u*u) over
any orthogonal basis u of the span, here the integer Gram-Schmidt basis of
its spanning vectors.  P is rational, so no square roots appear; it is summed
in integers on one canonical denominator, so subspaces are equal iff their
projections are entrywise equal.  The lattice operations are exact and need
no elimination: the join is the projection onto the projections' integer
columns, the orthocomplement is I - P, and the meet is X ^ Y = (X^perp + Y^perp)^perp.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch
from .matrices import Matrix, gram_schmidt, projection_matrix, vector


class Subspace:
    __slots__ = ("ambient_dim", "proj")

    def __init__(self, proj: Matrix):
        if proj.rows != proj.cols:
            raise DimensionMismatch("projection matrix must be square")
        self.ambient_dim = proj.rows
        self.proj = proj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(Matrix.zeros(n, n))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(Matrix.identity(n))

    @classmethod
    def coordinate(cls, n: int, indices: Iterable[int]) -> "Subspace":
        """Span of the standard basis vectors e_i for i in indices."""
        idx = set(indices)
        return cls(Matrix.diagonal([1 if i in idx else 0 for i in range(n)]))

    # -- structure ---------------------------------------------------------

    @property
    def dim(self) -> int:
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
    return Subspace(projection_matrix(list(gram_schmidt(cols)), n))


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
