"""Counterexample constructions and inducibility obstructions.

Two generators produce finite relation-preserving swaps that no unitary or
anti-unitary conjugation can induce: the image-swap (two distinct operators
sharing one image, everything else fixed) and the eigenvalue-swap for a
class with two equal-dimensional eigenspaces.  Non-inducibility is
certified through the trace pairing tr(AB), which any unitary or
anti-unitary conjugation preserves; the positive direction is only checked
for apartment-aligned transformations where the conjugating operator can be
a permutation of frame lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

from .apartments import Apartment, Labeling, enumerate_members
from .compatibility import Frame, split_into_lines
from .errors import (
    DimensionMismatch,
    NoRoom,
    NotAnEigenline,
    OrthoapartError,
    ProjectionClass,
)
from .matrices import Matrix
from .operators import (
    ClassDescriptor,
    SpectralOperator,
    commutes,
    image_of,
    materialize,
    orthogonal,
)
from .subspaces import Subspace, span_sum


@dataclass(frozen=True)
class FiniteTransformation:
    """A bijection of a finite set of same-class operators, given as a
    permutation of domain indices."""

    domain: Tuple[SpectralOperator, ...]
    mapping: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(self.domain))
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if sorted(self.mapping) != list(range(len(self.domain))):
            raise OrthoapartError("mapping is not a permutation of the domain")
        classes = {op.cls for op in self.domain}
        if len(classes) > 1:
            raise OrthoapartError("all domain operators must share one class")

    def image(self, s: int) -> SpectralOperator:
        return self.domain[self.mapping[s]]

    @classmethod
    def identity(cls, domain: Sequence[SpectralOperator]) -> "FiniteTransformation":
        return cls(tuple(domain), tuple(range(len(domain))))


@dataclass(frozen=True)
class GramWitness:
    """A domain pair whose trace pairing changes under the transformation,
    proving no unitary or anti-unitary conjugation induces it."""

    s: int
    t: int
    lhs: Fraction
    rhs: Fraction


# ---------------------------------------------------------------------------
# counterexample generators

def _frame_extending(groups: Sequence[Subspace], n: int) -> Frame:
    """Frame whose first lines split the given mutually orthogonal groups in
    order, completed by lines of the orthocomplement."""
    lines: List[Subspace] = []
    total = Subspace.zero(n)
    for g in groups:
        lines.extend(split_into_lines(g))
        total = span_sum(total, g)
    lines.extend(split_into_lines(total.perp()))
    return Frame(n, tuple(lines))


def _swap_transformation(
    ap: Apartment, a: Labeling, b: Labeling
) -> FiniteTransformation:
    """All apartment members as bystanders, with a and b transposed."""
    members = list(enumerate_members(ap))
    keys = [m.assignment for m in members]
    ia, ib = keys.index(a.assignment), keys.index(b.assignment)
    mapping = list(range(len(members)))
    mapping[ia], mapping[ib] = ib, ia
    domain = tuple(m.to_operator(ap) for m in members)
    return FiniteTransformation(domain, tuple(mapping))


def example_orth_swap(cls: ClassDescriptor, x: Subspace) -> FiniteTransformation:
    """Transpose two distinct operators whose images both equal x and fix
    every other member of an apartment through x.  The swap preserves
    orthogonality on the whole domain but is not induced by any unitary or
    anti-unitary operator (see gram_obstruction)."""
    if cls.m < 2:
        raise ProjectionClass(
            "a single-eigenvalue class has exactly one operator per image"
        )
    if x.ambient_dim != cls.n:
        raise DimensionMismatch("subspace ambient dimension differs from class")
    if x.dim != cls.rank:
        raise OrthoapartError(f"image must have dimension {cls.rank}, got {x.dim}")
    frame = _frame_extending([x], cls.n)
    ap = Apartment(frame, cls)
    k = cls.rank
    # two labelings of the same k frame lines: slots consumed forward vs backward
    forward: List[Optional[int]] = [None] * cls.n
    backward: List[Optional[int]] = [None] * cls.n
    pos = 0
    for t, d in enumerate(cls.dims):
        for _ in range(d):
            forward[pos] = t
            backward[k - 1 - pos] = t
            pos += 1
    return _swap_transformation(ap, Labeling(tuple(forward)), Labeling(tuple(backward)))


def example_comm_swap(
    n: int,
    alpha,
    beta,
    m_dim: int,
    x: Subspace,
    y: Subspace,
) -> FiniteTransformation:
    """Transpose A = alpha P_x + beta P_y and B = alpha P_y + beta P_x,
    fixing every other member of an apartment through x and y.  The swap
    preserves commutativity on the whole domain but is not induced by any
    unitary or anti-unitary operator."""
    if x.dim != m_dim or y.dim != m_dim:
        raise OrthoapartError(f"both eigenspaces must have dimension {m_dim}")
    if not x.is_orthogonal_to(y):
        raise OrthoapartError("the two eigenspaces must be orthogonal")
    cls = ClassDescriptor(n, (Fraction(alpha), Fraction(beta)), (m_dim, m_dim))
    frame = _frame_extending([x, y], n)
    ap = Apartment(frame, cls)
    a: List[Optional[int]] = [None] * n
    b: List[Optional[int]] = [None] * n
    for i in range(m_dim):
        a[i], a[m_dim + i] = 0, 1
        b[i], b[m_dim + i] = 1, 0
    return _swap_transformation(ap, Labeling(tuple(a)), Labeling(tuple(b)))


# ---------------------------------------------------------------------------
# preservation and obstruction checks

def check_preservation(t: FiniteTransformation, relation: str) -> bool:
    """True iff the relation holds for (A, B) exactly when it holds for
    (f(A), f(B)), over all domain pairs.  relation: 'commute' | 'orthogonal'."""
    rel = {"commute": commutes, "orthogonal": orthogonal}[relation]
    d = t.domain
    for s in range(len(d)):
        for u in range(s + 1, len(d)):
            if rel(d[s], d[u]) != rel(t.image(s), t.image(u)):
                return False
    return True


def gram_obstruction(t: FiniteTransformation) -> Optional[GramWitness]:
    """First domain pair (s, u) with tr(A_s A_u) != tr(f(A_s) f(A_u)), or
    None.  A witness rules out every unitary and anti-unitary inducer, both
    of which preserve the real trace pairing of self-adjoint operators."""
    mats = [materialize(op) for op in t.domain]

    def tr(i, j):
        return (mats[i] @ mats[j]).trace().re

    for s in range(len(t.domain)):
        for u in range(s + 1, len(t.domain)):
            lhs = tr(s, u)
            rhs = tr(t.mapping[s], t.mapping[u])
            if lhs != rhs:
                return GramWitness(s, u, lhs, rhs)
    return None


def conjugate_operator(op: SpectralOperator, u: Matrix) -> SpectralOperator:
    """U A U* in spectral form: each eigenspace projection becomes
    U P U*.  u must be unitary for the result to stay in the class."""
    uh = u.adjoint()
    eig = tuple((a, Subspace(u @ x.proj @ uh)) for a, x in op.eigenspaces)
    return SpectralOperator(op.cls, eig)


def signed_permutation_matrix(n: int, perm: Sequence[int], signs: Sequence[int] | None = None) -> Matrix:
    """The unitary sending e_i to signs[i] * e_{perm[i]}."""
    signs = signs or [1] * n
    cols = []
    for i in range(n):
        col = [0] * n
        col[perm[i]] = signs[i]
        cols.append(col)
    return Matrix.from_columns(cols)


def permutation_inducer(t: FiniteTransformation) -> Optional[Matrix]:
    """Search for a coordinate-permutation unitary U with
    f(A) = U A U* for every domain operator.

    Only the apartment-aligned positive check: deciding general inducibility
    would need an intertwining solve with a unitarity constraint, which
    exact rational arithmetic cannot close.  Feasible for small n only.
    """
    if not t.domain:
        return Matrix.identity(0)
    n = t.domain[0].n
    mats = [materialize(op) for op in t.domain]
    for perm in permutations(range(n)):
        u = signed_permutation_matrix(n, perm)
        uh = u.adjoint()
        if all(u @ mats[s] @ uh == mats[t.mapping[s]] for s in range(len(mats))):
            return u
    return None


# ---------------------------------------------------------------------------
# the commuting-witness construction

def witness_commuting_operator(a: SpectralOperator, y: Subspace) -> SpectralOperator:
    """An operator B of the same class with AB = BA whose image meets
    Im(A) exactly in the eigenline y.

    The image of B is y plus k-1 directions inside Im(A)^perp; y is labeled
    with the slot of smallest eigenspace dimension (first on ties) and all
    remaining slots are filled from Im(A)^perp.  Needs n >= 2k - 1.
    """
    cls = a.cls
    k = cls.rank
    if y.ambient_dim != cls.n or y.dim != 1:
        raise NotAnEigenline("y must be a line of the ambient space")
    if not any(x.contains(y) for _, x in a.eigenspaces):
        raise NotAnEigenline("y is not contained in a maximal eigenspace of A")
    if cls.n < 2 * k - 1:
        raise NoRoom(f"need n >= 2k-1 = {2 * k - 1}, have n = {cls.n}")
    perp_lines = split_into_lines(image_of(a).perp())
    slot_for_y = min(range(cls.m), key=lambda s: cls.dims[s])
    eig: List[Tuple[Fraction, Subspace]] = []
    cursor = 0
    for s, (alpha, d) in enumerate(zip(cls.alphas, cls.dims)):
        if s == slot_for_y:
            space = y
            need = d - 1
        else:
            space = Subspace.zero(cls.n)
            need = d
        for _ in range(need):
            space = span_sum(space, perp_lines[cursor])
            cursor += 1
        eig.append((alpha, space))
    return SpectralOperator(cls, tuple(eig))
