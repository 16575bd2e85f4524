"""Subspaces of C^n stored canonically as exact orthogonal projections.

A subspace is represented by its projection matrix P = V (V*V)^{-1} V* for
any column basis V of the span.  P is rational whenever V is, so no square
roots ever appear.  It is computed in integers, V (det G) G^{-1} V* over det G
with G = V*V, on one canonical denominator, so subspaces are equal iff their
projections are entrywise equal.  Meet, join, relative orthocomplement are exact.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .errors import DimensionMismatch
from .matrices import Matrix, Vector, vector


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
        tr = self.proj.trace()
        if not tr.is_real or tr.re.denominator != 1:
            raise ValueError("projection trace is not an integer; corrupt subspace")
        return int(tr.re)

    def basis(self) -> List[Vector]:
        """An exact (not normalized) basis: pivot columns of the projection."""
        return self.proj.column_space_basis()

    def line_vector(self) -> Vector:
        """A spanning vector of a line: the first nonzero column of its projection."""
        if self.dim != 1:
            raise ValueError("line_vector requires a 1-dimensional subspace")
        return self.proj.column(self.proj.nonzero_columns()[0])

    # -- predicates --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.proj == other.proj

    def __hash__(self):
        return hash(self.proj)

    def is_zero(self) -> bool:
        return self.proj.is_zero()

    def contains(self, other: "Subspace") -> bool:
        """other <= self, as an exact matrix identity P_self P_other = P_other."""
        self._same_ambient(other)
        return self.proj @ other.proj == other.proj

    def contains_vector(self, v: Sequence) -> bool:
        v = vector(v)
        return self.proj.apply(v) == v

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


def projection_of(vectors: Sequence[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Subspace spanned by the given vectors, via P = V (V*V)^{-1} V*.

    The result is basis-independent: any spanning set of the same subspace
    yields the identical projection matrix.
    """
    vecs = [vector(v) for v in vectors]
    if vecs:
        n = len(vecs[0])
        if any(len(v) != n for v in vecs):
            raise DimensionMismatch("input vectors of unequal length")
        if ambient_dim is not None and ambient_dim != n:
            raise DimensionMismatch("ambient_dim disagrees with vector length")
    else:
        if ambient_dim is None:
            raise DimensionMismatch("ambient_dim required for an empty spanning set")
        n = ambient_dim
    raw = Matrix.from_columns(vecs, rows=n)
    _, pivots = raw.rref()
    if not pivots:
        return Subspace.zero(n)
    v = raw.select_columns(pivots)
    vh = v.adjoint()
    return Subspace(v @ (vh @ v).inverse() @ vh)


def intersect(x: Subspace, y: Subspace) -> Subspace:
    """Set-theoretic intersection: the common fixed space of both projections."""
    x._same_ambient(y)
    n = x.ambient_dim
    eye = Matrix.identity(n)
    stacked = (x.proj - eye).vstack(y.proj - eye)
    return projection_of(stacked.kernel_basis(), ambient_dim=n)


def span_sum(x: Subspace, y: Subspace) -> Subspace:
    """Smallest subspace containing both: span of the union."""
    x._same_ambient(y)
    cols = x.proj.columns() + y.proj.columns()
    return projection_of(cols, ambient_dim=x.ambient_dim)


def complement_within(x: Subspace, y: Subspace) -> Subspace:
    """x^perp intersected with y."""
    return intersect(x.perp(), y)


def orthogonalize(vectors: Sequence[Sequence]) -> List[Vector]:
    """Exact Gram-Schmidt without normalization.

    Returns pairwise-orthogonal rational vectors spanning the same subspace;
    dependent inputs are dropped.  No square roots: each vector is the
    primitive integer multiple that fraction-free arithmetic produces.
    """
    vecs = list(vectors)
    return [u.column(0) for u in orthogonal_columns(Matrix.from_columns(vecs))] if vecs else []


def orthogonal_columns(m: Matrix) -> List[Matrix]:
    """Fraction-free Gram-Schmidt: pairwise orthogonal n x 1 matrices spanning the
    column space of m.  Against each earlier output u, v becomes (u*u) v - (u*v) u,
    the usual step times u*u, made primitive again so its entries do not grow."""
    out: List[Matrix] = []
    for j in range(m.cols):
        v = m.select_columns([j]).primitive()
        for u in out:
            uh = u.adjoint()
            v = (v @ (uh @ u) - u @ (uh @ v)).primitive()
        if not v.is_zero():
            out.append(v)
    return out
