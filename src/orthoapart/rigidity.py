"""Counterexample constructions and inducibility obstructions.

Two generators produce finite relation-preserving swaps that no unitary or
anti-unitary conjugation can induce: the image-swap (two distinct operators
sharing one image, everything else fixed) and the eigenvalue-swap for a
class with two equal-dimensional eigenspaces.  Each swap is built from the
class alone and permutes the members of an apartment, read as operators on
the coordinate frame.  Non-inducibility is certified through the trace
pairing tr(AB), which any unitary or anti-unitary conjugation preserves.

The certificate is decided on labels, with no operator materialized:
members of one apartment commute pairwise, two members are orthogonal iff
their label images are disjoint, and tr(AB) = sum_i alpha(a_i) alpha(b_i)
over the frame lines i that both label.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .apartments import (
    Labeling,
    enumerate_members,
    labelings_orthogonal,
    member_count,
    trace_pairing,
)
from .compatibility import split_into_lines
from .errors import (
    NoRoom,
    NotAnEigenline,
    OrthoapartError,
    ProjectionClass,
    Value,
)
from .matrices import Matrix
from .operators import ClassDescriptor, SpectralOperator, image_of
from .subspaces import Subspace, span_sum

# The certificate walks every member pair of a swap's domain.  At the limit
# the slowest shape measured, dims (1, 1) at n = 45, takes about 5 s end to
# end (2-vCPU Xeon, Python 3.11).
MAX_DOMAIN_PAIRS = 2_000_000


class FiniteTransformation(Value):
    """A bijection of members of one apartment of the class, given as a
    permutation of member indices: member s goes to member mapping[s]."""

    __slots__ = ("cls", "members", "mapping")

    def __init__(
        self, cls: ClassDescriptor, members: Tuple[Labeling, ...], mapping: Tuple[int, ...]
    ):
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "members", tuple(members))
        object.__setattr__(self, "mapping", tuple(mapping))
        if sorted(self.mapping) != list(range(len(self.members))):
            raise OrthoapartError("mapping is not a permutation of the members")
        for m in self.members:
            m.validate(cls)


class GramWitness(Value):
    """A member pair whose trace pairing changes under the transformation,
    proving no unitary or anti-unitary conjugation induces it."""

    __slots__ = ("s", "t", "lhs", "rhs")

    def __init__(self, s: int, t: int, lhs: Fraction, rhs: Fraction):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


# ---------------------------------------------------------------------------
# counterexample generators

def _swap_transformation(
    cls: ClassDescriptor, a: List[Optional[int]], b: List[Optional[int]]
) -> FiniteTransformation:
    """All members of an apartment as bystanders, with the labelings a and
    b of its first frame lines transposed.  A domain of more member pairs
    than MAX_DOMAIN_PAIRS is refused before it is enumerated."""
    pairs = math.comb(member_count(cls), 2)
    if pairs > MAX_DOMAIN_PAIRS:
        raise OrthoapartError(f"the domain has {pairs} member pairs, over the limit {MAX_DOMAIN_PAIRS}")
    rest = [None] * (cls.n - len(a))
    a, b = Labeling(tuple(a + rest)), Labeling(tuple(b + rest))
    members = tuple(enumerate_members(cls))
    ia, ib = members.index(a), members.index(b)
    mapping = list(range(len(members)))
    mapping[ia], mapping[ib] = ib, ia
    return FiniteTransformation(cls, members, tuple(mapping))


def example_orth_swap(cls: ClassDescriptor) -> FiniteTransformation:
    """Transpose two distinct operators whose images both equal x, the span
    of the first k standard frame lines, and fix every other member of the
    standard apartment: one labels x's lines with the slots in order, the
    other in reverse.  The swap preserves orthogonality on the whole domain
    but is not induced by any unitary or anti-unitary operator (see
    gram_obstruction)."""
    if cls.m < 2:
        raise ProjectionClass(
            "a single-eigenvalue class has exactly one operator per image"
        )
    forward = [t for t, d in enumerate(cls.dims) for _ in range(d)]
    return _swap_transformation(cls, forward, forward[::-1])


def example_comm_swap(cls: ClassDescriptor) -> FiniteTransformation:
    """For a class alpha, beta of equal dimension d, transpose
    A = alpha P_x + beta P_y and B = alpha P_y + beta P_x, where x and y
    span the first d and the next d standard frame lines, and fix every
    other member of the standard apartment.  The swap preserves
    commutativity on the whole domain but is not induced by any unitary or
    anti-unitary operator."""
    if cls.m != 2 or cls.dims[0] != cls.dims[1]:
        raise OrthoapartError(
            "the commutativity counterexample needs two eigenvalues of equal dimension"
        )
    d = cls.dims[0]
    return _swap_transformation(cls, [0] * d + [1] * d, [1] * d + [0] * d)


# ---------------------------------------------------------------------------
# preservation and obstruction checks

def check_preservation(t: FiniteTransformation, relation: str) -> bool:
    """True iff the relation holds for (A, B) exactly when it holds for
    (f(A), f(B)), over all member pairs.  relation: 'commute' | 'orthogonal'.

    Members of one apartment commute pairwise, and two of them are
    orthogonal iff their label images are disjoint."""
    rel = {"commute": lambda a, b: True, "orthogonal": labelings_orthogonal}[relation]
    d = t.members
    fd = [d[i] for i in t.mapping]
    return all(
        rel(d[s], d[u]) == rel(fd[s], fd[u])
        for s in range(len(d))
        for u in range(s + 1, len(d))
    )


def gram_obstruction(t: FiniteTransformation) -> Optional[GramWitness]:
    """First member pair (s, u) with tr(A_s A_u) != tr(f(A_s) f(A_u)), or
    None.  A witness rules out every unitary and anti-unitary inducer, both
    of which preserve the real trace pairing of self-adjoint operators.
    The pairing is read off the labels (see trace_pairing)."""
    d, cls = t.members, t.cls
    fd = [d[i] for i in t.mapping]
    for s in range(len(d)):
        for u in range(s + 1, len(d)):
            lhs = trace_pairing(d[s], d[u], cls)
            rhs = trace_pairing(fd[s], fd[u], cls)
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
