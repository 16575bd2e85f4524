"""Counterexample constructions and inducibility obstructions.

Two generators produce finite relation-preserving swaps that no unitary or
anti-unitary conjugation can induce: the image-swap (two distinct operators
sharing one image) and the eigenvalue-swap for a class with two
equal-dimensional eigenspaces.  Each transposes two members a and b of the
standard apartment (the one on the coordinate frame), which label the first
k frame lines and no other, and fixes every other member.
Non-inducibility is certified through the trace pairing tr(AB), which any
unitary or anti-unitary conjugation preserves.

The certificate is decided by identities on labels, with no member list and
no operator.  Only the pairs holding a or b change, and (a, b) maps to
itself.  Members of one apartment commute pairwise, and a and b have the
same image, so every bystander is orthogonal to both or to neither: both
relations are preserved.  A bystander x pairs with a as
tr(AX) = sum_i alpha(a_i) alpha(x_i), over the first k lines, so the
witness walk reads only x's labels on those lines.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .apartments import _multinomial
from .errors import (
    NoRoom,
    NotAnEigenline,
    OrthoapartError,
    ProjectionClass,
    Value,
)
from .operators import ClassDescriptor, SpectralOperator, image_of
from .subspaces import Subspace

# gram_obstruction walks at most min(M, (m + 1)^k) blocks, each O(k) work,
# and refuses a class over this many before it starts.  Every class of at
# most 2,000 members is accepted.  The refusal states the count up to
# MAX_BLOCKS ** 3 and computes no larger number.
MAX_BLOCKS = 2000


class FiniteTransformation(Value):
    """The transposition of two members a and b of the class's standard
    apartment that fixes every other member.  a and b are the labels of the
    first k frame lines, every later line being None: a is member 0, the
    slots in order, and b holds the same slots in another order."""

    __slots__ = ("cls", "a", "b")

    def __init__(self, cls: ClassDescriptor, a: Sequence[int], b: Sequence[int]):
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "b", tuple(b))
        if self.a != _first_member(cls):
            raise OrthoapartError("a must label the first k frame lines with the slots in order")
        if Counter(self.b) != Counter(self.a):
            raise OrthoapartError("b must label the first k frame lines with the slots of a")


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

def _first_member(cls: ClassDescriptor) -> Tuple[int, ...]:
    """Member 0's labels of the first k frame lines: the slots in order."""
    return tuple(t for t, d in enumerate(cls.dims) for _ in range(d))


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
    forward = _first_member(cls)
    return FiniteTransformation(cls, forward, forward[::-1])


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
    return FiniteTransformation(cls, [0] * d + [1] * d, [1] * d + [0] * d)


# ---------------------------------------------------------------------------
# preservation and obstruction checks

def check_preservation(t: FiniteTransformation, relation: str) -> bool:
    """True iff the relation holds for (A, B) exactly when it holds for
    (f(A), f(B)), over all member pairs.  relation: 'commute' | 'orthogonal'.

    Only the pairs (a, x) and (b, x) with a bystander x change, into (b, x)
    and (a, x).  Members of one apartment commute pairwise, and a and b
    have the same image, so x is orthogonal to both or to neither."""
    return {"commute": True, "orthogonal": True}[relation]


def _capped_multinomial(parts: Sequence[int], cap: int) -> int:
    """sum(parts)! / prod(p!), or cap + 1 when that is more.  Each binomial
    C(s, p) is built one factor at a time from its smaller side, so the
    running product only grows and stops as soon as it passes cap."""
    result, total = 1, 0
    for p in parts:
        total += p
        for i in range(min(p, total - p)):
            result = result * (total - i) // (i + 1)
            if result > cap:
                return cap + 1
    return result


def gram_obstruction(t: FiniteTransformation) -> Optional[GramWitness]:
    """First member pair (s, u) with tr(A_s A_u) != tr(f(A_s) f(A_u)), or
    None.  A witness rules out every unitary and anti-unitary inducer, both
    of which preserve the real trace pairing of self-adjoint operators.

    A bystander x whose pairing with a (member 0) differs from its pairing
    with b changes the pair (0, x) and, later in (s, u) order, the pair of x
    and b; no other pair changes.  So the witness is (0, x) for the least
    such x.  Both pairings, sum_i alpha(a_i) alpha(x_i) and likewise for b, read only x's
    labels of the first k lines.  So the members are walked as blocks that
    share those k labels, in lexicographic order (slots before None): a
    block's first index is the sum of the sizes of the blocks before it,
    each a multinomial in n, and a and b are blocks of one member each.  The
    witness heads the first other block whose two pairings differ.  A class
    of more than MAX_BLOCKS possible blocks is refused before the walk."""
    cls, k, m = t.cls, t.cls.rank, t.cls.m
    cap = MAX_BLOCKS ** 3
    # (m + 1)^e > cap once e reaches cap's bit length, as m + 1 >= 2
    blocks = min(_capped_multinomial(cls.dims + (cls.n - k,), cap), (m + 1) ** min(k, cap.bit_length()))
    if blocks > MAX_BLOCKS:
        stated = f"more than {cap}" if blocks > cap else blocks
        raise OrthoapartError(f"the witness walk may visit {stated} blocks, the lesser of "
                              f"M and (m + 1)^k, over the limit {MAX_BLOCKS}")
    # eigenvalues times a common denominator, so pairings sum integers; None is label m
    den = math.lcm(*(x.denominator for x in cls.alphas))
    alpha = [int(x * den) for x in cls.alphas] + [0]
    a, b = list(t.a), list(t.b)
    left = [*cls.dims, cls.n - k]  # lines each label has left
    x: List[int] = []  # the block's labels of the first k lines, so far
    pairings = [(0, 0)]  # x's pairings with a and with b, after each line
    first, label = 0, 0  # the block's first index; the next label to try at line len(x)
    while True:
        if len(x) == k:
            lhs, rhs = pairings[-1]
            if lhs != rhs and x != a and x != b:
                return GramWitness(0, first, Fraction(lhs, den * den), Fraction(rhs, den * den))
            first += _multinomial(left)
            label = m + 1
        while label <= m and not left[label]:
            label += 1
        if label <= m:
            i, (lhs, rhs) = len(x), pairings[-1]
            pairings.append((lhs + alpha[a[i]] * alpha[label], rhs + alpha[b[i]] * alpha[label]))
            left[label] -= 1
            x.append(label)
            label = 0
        elif x:
            pairings.pop()
            label = x.pop()
            left[label] += 1
            label += 1
        else:
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
    # Im(A)^perp's lines, pairwise orthogonal and orthogonal to y
    lines = image_of(a).perp().basis
    slot_for_y = min(range(cls.m), key=lambda s: cls.dims[s])
    eig: List[Tuple[Fraction, Subspace]] = []
    cursor = 0
    for s, (alpha, d) in enumerate(zip(cls.alphas, cls.dims)):
        head = y.basis if s == slot_for_y else ()
        take = d - len(head)
        eig.append((alpha, Subspace.spanned_by(head + lines[cursor:cursor + take], cls.n)))
        cursor += take
    return SpectralOperator(cls, tuple(eig))
