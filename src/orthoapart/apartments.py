"""Orthogonal apartments of a conjugacy class and the counting machinery
for orthocomplementary subsets.

An apartment is the set of class members whose maximal eigenspaces are
spanned by subsets of one frame.  Members are stored combinatorially: a
labeling assigns to each frame line either an eigenvalue slot or nothing
(the kernel), with exactly dims[t] lines per slot t.  All the subset
predicates are label comparisons, so counting is O(1) per index pair and
exact by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .compatibility import Frame
from .errors import NotAMember, OrthoapartError, ThresholdViolation
from .operators import ClassDescriptor, SpectralOperator
from .subspaces import Subspace, projection_of

Slot = Optional[int]


@dataclass(frozen=True)
class Apartment:
    frame: Frame
    cls: ClassDescriptor

    def __post_init__(self):
        if self.frame.ambient_dim != self.cls.n:
            raise OrthoapartError("frame and class live in different dimensions")

    @property
    def n(self) -> int:
        return self.cls.n

    @property
    def k(self) -> int:
        return self.cls.rank


def standard_apartment(cls: ClassDescriptor) -> Apartment:
    return Apartment(Frame.standard(cls.n), cls)


@dataclass(frozen=True)
class PairIndex:
    """An unordered pair {i, j} of frame indices, stored with i < j."""

    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise OrthoapartError("pair indices must be distinct")
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


@dataclass(frozen=True)
class Labeling:
    """One apartment member: frame index -> eigenvalue slot (or None)."""

    assignment: Tuple[Slot, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))

    def slot(self, i: int) -> Slot:
        return self.assignment[i]

    def image_indices(self) -> frozenset:
        return frozenset(i for i, t in enumerate(self.assignment) if t is not None)

    def validate(self, ap: Apartment) -> None:
        a = self.assignment
        if len(a) != ap.n:
            raise NotAMember(f"labeling length {len(a)} in an apartment of dimension {ap.n}")
        for t, d in enumerate(ap.cls.dims):
            if sum(1 for s in a if s == t) != d:
                raise NotAMember(f"slot {t} does not receive exactly {d} frame lines")

    def to_operator(self, ap: Apartment) -> SpectralOperator:
        """The spectral operator whose eigenspace for slot t is the sum of
        the frame lines labeled t."""
        self.validate(ap)
        eig = []
        for t, alpha in enumerate(ap.cls.alphas):
            proj = None
            for i, s in enumerate(self.assignment):
                if s == t:
                    p = ap.frame.lines[i].proj
                    proj = p if proj is None else proj + p
            eig.append((alpha, Subspace(proj)))
        return SpectralOperator(ap.cls, tuple(eig))


# ---------------------------------------------------------------------------
# enumeration

def member_count(ap: Apartment) -> int:
    """n! / (d_1! ... d_m! (n-k)!), the number of apartment members."""
    c = ap.cls
    count = math.factorial(c.n) // math.factorial(c.n - c.rank)
    for d in c.dims:
        count //= math.factorial(d)
    return count


def enumerate_members(ap: Apartment) -> Iterator[Labeling]:
    """All members, each exactly once, in lexicographic order of the
    assignment tuple (slots before None at every position)."""
    c = ap.cls
    results: List[Tuple[Slot, ...]] = []

    def fill(assignment: List[Slot], slot: int, remaining: List[int]):
        if slot == c.m:
            results.append(tuple(assignment))
            return
        for chosen in combinations(remaining, c.dims[slot]):
            for i in chosen:
                assignment[i] = slot
            rest = [i for i in remaining if i not in chosen]
            fill(assignment, slot + 1, rest)
            for i in chosen:
                assignment[i] = None

    fill([None] * c.n, 0, list(range(c.n)))
    results.sort(key=lambda a: tuple(c.m if s is None else s for s in a))
    for a in results:
        yield Labeling(a)


# ---------------------------------------------------------------------------
# subset predicates (the families A(+i,+j), A(-i,-j), A(+i,-j), C_ij)

def in_plus_plus(a: Labeling, p: PairIndex) -> bool:
    """Some maximal eigenspace contains both frame lines i and j."""
    si, sj = a.slot(p.i), a.slot(p.j)
    return si is not None and si == sj


def in_minus_minus(a: Labeling, p: PairIndex) -> bool:
    """The image is orthogonal to the plane spanned by lines i and j."""
    return a.slot(p.i) is None and a.slot(p.j) is None


def in_plus_minus(a: Labeling, i: int, j: int) -> bool:
    """Some maximal eigenspace contains line i and does not contain line j."""
    si = a.slot(i)
    return si is not None and si != a.slot(j)


def in_orthocomplementary(a: Labeling, p: PairIndex) -> bool:
    """Membership in C_ij = A(+i,-j) union A(+j,-i); coincides with the
    complement of A(+i,+j) union A(-i,-j)."""
    return in_plus_minus(a, p.i, p.j) or in_plus_minus(a, p.j, p.i)


# ---------------------------------------------------------------------------
# counting

@lru_cache(maxsize=None)
def _pair_mask(assignment: Tuple[Slot, ...]) -> int:
    """Bitmask over unordered index pairs {i<j}: bit set iff the labeling
    lies in C_ij (its slots at i and j differ, None counting as a slot)."""
    n = len(assignment)
    mask = 0
    bit = 0
    for i in range(n):
        ai = assignment[i]
        for j in range(i + 1, n):
            if ai != assignment[j]:
                mask |= 1 << bit
            bit += 1
    return mask


@lru_cache(maxsize=None)
def _image_mask(assignment: Tuple[Slot, ...]) -> int:
    mask = 0
    for i, t in enumerate(assignment):
        if t is not None:
            mask |= 1 << i
    return mask


def labelings_orthogonal(a: Labeling, b: Labeling) -> bool:
    """Orthogonality of the two members: disjoint images."""
    return _image_mask(a.assignment) & _image_mask(b.assignment) == 0


def image_overlap(a: Labeling, b: Labeling) -> int:
    """dim(Im A cap Im B) for two members of a common apartment."""
    return (_image_mask(a.assignment) & _image_mask(b.assignment)).bit_count()


def n_count(a: Labeling, b: Labeling, ap: Apartment) -> int:
    """The number of orthocomplementary subsets C_ij containing both members."""
    a.validate(ap)
    b.validate(ap)
    return (_pair_mask(a.assignment) & _pair_mask(b.assignment)).bit_count()


def lemma3_bound(k: int, m: int, n: int) -> int:
    """(k-m)^2 + m(n-2k+m): the guaranteed number of shared
    orthocomplementary subsets for members with m-dimensional image overlap."""
    if not 0 <= m <= k <= n:
        raise OrthoapartError(f"need 0 <= m <= k <= n, got m={m}, k={k}, n={n}")
    return (k - m) ** 2 + m * (n - 2 * k + m)


def c_eval(x, k: int, n: int) -> Fraction:
    """The quadratic 2x^2 - (4k-n)x + k^2, defined for rational x."""
    x = Fraction(x)
    return 2 * x * x - (4 * k - n) * x + k * k


# ---------------------------------------------------------------------------
# orthogonally inexact subsets

def _support_indices(i: int, members: Sequence[Labeling], n: int) -> Set[int]:
    """Index support of S_i: intersect, over the given members, the
    eigenspace containing line i (when line i is in the image) or the
    orthocomplement of the image (when it is not)."""
    s = set(range(n))
    for a in members:
        t = a.slot(i)
        s &= {j for j, u in enumerate(a.assignment) if u == t}
    return s


def compute_S(i: int, members: Sequence[Labeling], ap: Apartment) -> Subspace:
    """The subspace S_i: intersection of every maximal eigenspace of a
    member containing line i with every image-orthocomplement of a member
    whose image misses line i.  Spanned by frame lines; contains line i;
    the full space for an empty member set."""
    if not 0 <= i < ap.n:
        raise OrthoapartError(f"frame index {i} out of range")
    for a in members:
        a.validate(ap)
    support = _support_indices(i, members, ap.n)
    vecs = []
    for j in sorted(support):
        vecs.append(ap.frame.lines[j].line_vector())
    return projection_of(vecs, ambient_dim=ap.n)


def is_orthogonally_inexact(
    members: Sequence[Labeling], ap: Apartment
) -> Tuple[bool, Optional[PairIndex]]:
    """Decide whether some other apartment contains the whole member set.

    Inexact iff some S_i has dimension >= 2; the returned witness pair
    (i, j) satisfies: the set lies inside A(+i,+j) union A(-i,-j).  When
    exact, every S_i is a single line and the apartment is unique.
    """
    for a in members:
        a.validate(ap)
    for i in range(ap.n):
        support = _support_indices(i, members, ap.n)
        if len(support) >= 2:
            j = min(x for x in support if x != i)
            return True, PairIndex(i, j)
    return False, None


def type_one_subset(p: PairIndex, ap: Apartment) -> List[Labeling]:
    """The maximal orthogonally inexact set A(+i,+j) union A(-i,-j)."""
    return [
        a
        for a in enumerate_members(ap)
        if in_plus_plus(a, p) or in_minus_minus(a, p)
    ]


def verify_maximal_inexact(p: PairIndex, ap: Apartment) -> bool:
    """Check that the type-(1) set at pair p is orthogonally inexact and
    that every single-member extension is exact.  Exhaustive."""
    base = type_one_subset(p, ap)
    inexact, _ = is_orthogonally_inexact(base, ap)
    if not inexact:
        return False
    base_keys = {a.assignment for a in base}
    for a in enumerate_members(ap):
        if a.assignment in base_keys:
            continue
        extended, _ = is_orthogonally_inexact(base + [a], ap)
        if extended:
            return False
    return True


def decide_orthogonality_by_count(a: Labeling, b: Labeling, ap: Apartment) -> bool:
    """Orthogonality via counting: n_count == k^2.  Only valid for n >= 4k."""
    k = ap.k
    if ap.n < 4 * k:
        raise ThresholdViolation(
            f"counting characterization needs n >= 4k (n={ap.n}, k={k})"
        )
    return n_count(a, b, ap) == k * k


# ---------------------------------------------------------------------------
# cross-validation helpers

def rotated_frame(ap: Apartment, p: PairIndex) -> Frame:
    """A frame agreeing with ap's outside {i, j} but rotated inside the
    plane of lines i and j: the new lines are spanned by u_i + u_j and
    u_i - u_j for norm-balanced representatives.  Its apartment meets ap's
    exactly in the type-(1) set, which cross-validates the inexactness
    decision procedure.

    Rational representatives of equal Hermitian norm exist only when the
    ratio of the two line norms is a rational square (always true for the
    standard frame); otherwise this raises.
    """
    from .matrices import inner, real_fraction

    vi = ap.frame.lines[p.i].line_vector()
    vj = ap.frame.lines[p.j].line_vector()
    ratio = real_fraction(inner(vi, vi)) / real_fraction(inner(vj, vj))
    rn, rd = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
    if rn * rn != ratio.numerator or rd * rd != ratio.denominator:
        raise OrthoapartError(
            "rotated_frame needs the two line norms to differ by a rational square"
        )
    # |vi|^2 / |vj|^2 = (rn/rd)^2, so rd*vi and rn*vj have equal norm
    ui = tuple(x * rd for x in vi)
    uj = tuple(x * rn for x in vj)
    plus = tuple(a + b for a, b in zip(ui, uj))
    minus = tuple(a - b for a, b in zip(ui, uj))
    lines = list(ap.frame.lines)
    lines[p.i] = projection_of([plus], ambient_dim=ap.n)
    lines[p.j] = projection_of([minus], ambient_dim=ap.n)
    return Frame(ap.n, tuple(lines))


def membership_labeling(ap: Apartment, op: SpectralOperator) -> Labeling:
    """Express a spectral operator as a labeling of the apartment, or raise
    NotAMember if some frame line is not wholly inside an eigenspace or the
    kernel."""
    if op.cls != ap.cls:
        raise NotAMember("operator class differs from apartment class")
    assignment: List[Slot] = []
    kernel_ok = None
    for i, line in enumerate(ap.frame.lines):
        slot: Slot = None
        for t, (_, x) in enumerate(op.eigenspaces):
            if x.contains(line):
                slot = t
                break
        if slot is None:
            # the line must then lie in the kernel (orthogonal to the image)
            from .operators import image_of

            if kernel_ok is None:
                kernel_ok = image_of(op).perp()
            if not kernel_ok.contains(line):
                raise NotAMember(f"frame line {i} is split across eigenspaces")
        assignment.append(slot)
    lab = Labeling(tuple(assignment))
    lab.validate(ap)
    return lab
