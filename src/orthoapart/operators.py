"""Conjugacy classes of finite-rank self-adjoint operators, in spectral form.

A class is the data (alpha, d): distinct nonzero rational eigenvalues with
the dimensions of their maximal eigenspaces.  An operator is stored as its
list of (eigenvalue, maximal eigenspace) pairs and is never reconstructed
from a matrix by eigendecomposition; the kernel is not recorded as an
eigenspace.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .errors import DimensionMismatch, OrthoapartError, Value
from .matrices import Matrix
from .compatibility import is_compatible
from .subspaces import Subspace


class ClassDescriptor(Value):
    """A conjugacy class: ambient dimension, eigenvalues, eigenspace dims."""

    __slots__ = ("n", "alphas", "dims")

    def __init__(self, n: int, alphas: Tuple[Fraction, ...], dims: Tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alphas", tuple(Fraction(a) for a in alphas))
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if len(self.alphas) != len(self.dims):
            raise OrthoapartError("alphas and dims must have equal length")
        if len(set(self.alphas)) != len(self.alphas):
            raise OrthoapartError("eigenvalues must be pairwise distinct")
        if any(a == 0 for a in self.alphas):
            raise OrthoapartError("eigenvalues must be nonzero")
        if any(d < 1 for d in self.dims):
            raise OrthoapartError("eigenspace dimensions must be positive")
        if self.rank > self.n:
            raise OrthoapartError(
                f"rank {self.rank} exceeds ambient dimension {self.n}"
            )

    @property
    def m(self) -> int:
        return len(self.alphas)

    @property
    def rank(self) -> int:
        return sum(self.dims)


class SpectralOperator(Value):
    __slots__ = ("cls", "eigenspaces")

    def __init__(self, cls: ClassDescriptor, eigenspaces: Tuple[Tuple[Fraction, Subspace], ...]):
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "eigenspaces", tuple((Fraction(a), x) for a, x in eigenspaces))
        c = self.cls
        if len(self.eigenspaces) != c.m:
            raise OrthoapartError("one eigenspace per eigenvalue required")
        for (a, x), alpha, d in zip(self.eigenspaces, c.alphas, c.dims):
            if a != alpha:
                raise OrthoapartError(f"eigenvalue {a} out of class order (expected {alpha})")
            if x.ambient_dim != c.n:
                raise DimensionMismatch("eigenspace ambient dimension mismatch")
            if x.dim != d:
                raise OrthoapartError(f"eigenspace for {a} has dim {x.dim}, class says {d}")
        spaces = [x for _, x in self.eigenspaces]
        for i in range(len(spaces)):
            for j in range(i + 1, len(spaces)):
                if not spaces[i].is_orthogonal_to(spaces[j]):
                    raise OrthoapartError("maximal eigenspaces must be mutually orthogonal")

    @property
    def n(self) -> int:
        return self.cls.n


def materialize(a: SpectralOperator) -> Matrix:
    """The Hermitian matrix sum alpha_i P_{X_i}."""
    out = Matrix.zeros(a.n, a.n)
    for alpha, x in a.eigenspaces:
        out = out + x.proj.scale(alpha)
    return out


def image_of(a: SpectralOperator) -> Subspace:
    """Sum of all maximal eigenspaces; its dimension is the class rank.

    The eigenspaces are mutually orthogonal (checked on construction), so
    their bases together are an orthogonal basis of their span.
    """
    return Subspace.spanned_by([u for _, x in a.eigenspaces for u in x.basis], a.n)


def commutes(a: SpectralOperator, b: SpectralOperator) -> bool:
    """True iff every eigenspace of a is compatible with every eigenspace of b.

    Agrees exactly with commutation of the materialized matrices.
    """
    if a.n != b.n:
        raise DimensionMismatch("operators in different ambient dimensions")
    return all(
        is_compatible(x, y)
        for _, x in a.eigenspaces
        for _, y in b.eigenspaces
    )


def orthogonal(a: SpectralOperator, b: SpectralOperator) -> bool:
    """True iff the images are orthogonal (AB = BA = 0); implies commutes."""
    if a.n != b.n:
        raise DimensionMismatch("operators in different ambient dimensions")
    return image_of(a).is_orthogonal_to(image_of(b))
