"""Orthogonal apartments of a conjugacy class and the counting machinery
for orthocomplementary subsets.

An apartment is the set of class members whose maximal eigenspaces are
spanned by subsets of one frame.  Members are stored combinatorially: a
labeling assigns to each frame line either an eigenvalue slot or nothing
(the kernel), with exactly dims[t] lines per slot t.  All the subset
predicates are label comparisons, so counting is exact by construction, and
a scan of all member pairs reads member 0's (overlap, count) cells
(pair_cells), computed by a transfer over its rows whose states do not grow
with n.
"""

from __future__ import annotations

import math
from itertools import accumulate
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .compatibility import Frame
from .errors import NotAMember, OrthoapartError, ThresholdViolation, Value
from .operators import ClassDescriptor, SpectralOperator
from .subspaces import Subspace, projection_of

Slot = Optional[int]

# pair_cells keeps at most prod_t (d_t + 1) states per row, and refuses a
# class above this many.  The slowest class measured at the limit, dims
# (31, 31), takes about 5 s; dims 1^10 take 0.2 s (2-vCPU Xeon, Python 3.11).
MAX_TRANSFER_STATES = 1024


class Apartment(Value):
    __slots__ = ("frame", "cls")

    def __init__(self, frame: Frame, cls: ClassDescriptor):
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "cls", cls)
        if frame.ambient_dim != cls.n:
            raise OrthoapartError("frame and class live in different dimensions")

    @property
    def n(self) -> int:
        return self.cls.n

    @property
    def k(self) -> int:
        return self.cls.rank


def standard_apartment(cls: ClassDescriptor) -> Apartment:
    return Apartment(Frame.standard(cls.n), cls)


class PairIndex(Value):
    """An unordered pair {i, j} of frame indices, stored with i < j."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        if i == j:
            raise OrthoapartError("pair indices must be distinct")
        if i > j:
            i, j = j, i
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)


class Labeling(Value):
    """One apartment member: frame index -> eigenvalue slot (or None)."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Tuple[Slot, ...]):
        object.__setattr__(self, "assignment", tuple(assignment))

    def slot(self, i: int) -> Slot:
        return self.assignment[i]

    def validate(self, cls: ClassDescriptor) -> None:
        a = self.assignment
        if len(a) != cls.n:
            raise NotAMember(f"labeling length {len(a)} in an apartment of dimension {cls.n}")
        for t, d in enumerate(cls.dims):
            if sum(1 for s in a if s == t) != d:
                raise NotAMember(f"slot {t} does not receive exactly {d} frame lines")

    def to_operator(self, ap: Apartment) -> SpectralOperator:
        """The spectral operator whose eigenspace for slot t is the sum of
        the frame lines labeled t."""
        self.validate(ap.cls)
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
    return _multinomial(ap.cls.dims + (ap.n - ap.k,))


def _member_assignments(cls: ClassDescriptor) -> List[Tuple[Slot, ...]]:
    """The assignment tuples of all members of the class's apartments, in
    lexicographic order (slots before None at every position), generated in
    that order: position by position, each label with lines left, slots
    first.  Labels do not depend on the frame, so this reads n and the dims."""
    n, labels, left = cls.n, [*range(cls.m), None], [*cls.dims, cls.n - cls.rank]
    results: List[Tuple[Slot, ...]] = []
    assignment: List[Slot] = [None] * n

    def fill(i: int):
        live = [s for s, c in enumerate(left) if c]
        if len(live) < 2:  # the rest of the positions are forced
            assignment[i:] = [labels[s] for s in live for _ in range(left[s])]
            results.append(tuple(assignment))
            return
        for s in live:
            left[s] -= 1
            assignment[i] = labels[s]
            fill(i + 1)
            left[s] += 1

    fill(0)
    return results


def enumerate_members(ap: Apartment) -> Iterator[Labeling]:
    """All members, each exactly once, in lexicographic order of the
    assignment tuple (slots before None at every position)."""
    for a in _member_assignments(ap.cls):
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


def trace_pairing(a: Labeling, b: Labeling, cls: ClassDescriptor) -> Fraction:
    """tr(AB) for two members of a common apartment: the frame lines are
    orthogonal rank-one projections, so only the lines both members label
    contribute, each the product of its two eigenvalues."""
    return sum(
        (cls.alphas[s] * cls.alphas[t] for s, t in zip(a.assignment, b.assignment)
         if s is not None and t is not None),
        Fraction(0),
    )


def n_count(a: Labeling, b: Labeling, ap: Apartment) -> int:
    """The number of orthocomplementary subsets C_ij containing both members."""
    a.validate(ap.cls)
    b.validate(ap.cls)
    return (_pair_mask(a.assignment) & _pair_mask(b.assignment)).bit_count()


def _multinomial(parts: Sequence[int]) -> int:
    """sum(parts)! / prod(p!), as a product of binomials."""
    return math.prod(map(math.comb, accumulate(parts), parts))


def _rows(left: Tuple[int, ...], d: int) -> List[List[Tuple[int, int]]]:
    """Every row of sum d with c_t <= left[t], as its nonzero cells (t, c_t)."""
    rows: list = []

    def fill(start: int, need: int, cells: list):
        if not need:
            rows.append(cells)
            return
        for t in range(start, len(left)):
            for c in range(1, min(need, left[t]) + 1):
                fill(t + 1, need - c, cells + [(t, c)])

    fill(0, d, [])
    return rows


def _merge(cells: dict, key, weight: int, first: int) -> None:
    """Add weight to cells[key] and keep the least first index."""
    w, f = cells.get(key, (0, first))
    cells[key] = (w + weight, min(f, first))


def pair_cells(cls: ClassDescriptor) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """(overlap, n_count) against member 0 -> (weight, first): the number of
    other members in that cell and the least enumeration index among them.

    Member 0, a, labels the first d_0 frame lines 0, the next d_1 lines 1,
    ..., and the last n - k lines None.  A member b meets it in the joint
    table c[s][t] = #{i : a_i = s, b_i = t} (None is slot m), with row and
    column sums r = (d_0, ..., d_{m-1}, n - k).  The table gives
      overlap = the sum of the cells with s and t both slots,
      count = C(n, 2) - 2 sum_s C(r_s, 2) + sum_{s,t} C(c_st, 2),
      #members = prod_s multinomial(r_s; c_s.),
    and its first member, which sorts each of a's blocks ascending, slots
    before None, has as index its rank among the orderings of the labels.
    Only the column sums couple a's rows, so a transfer walks the slot rows
    with state (column sums left, still diagonal).  A row adds to the rank
    an amount fixed by the state and the row, so the least index is carried
    as a minimum.  The None row is forced, and the diagonal table, a itself,
    is dropped.  After each row there are at most prod_t (d_t + 1) states
    besides the diagonal one, whatever n is.

    S_n moves member 0 to any member and keeps both numbers, so a cell of
    weight w holds w*M/2 of the C(M, 2) member pairs, the first in (s, t)
    order being [0, first].  A class of more than MAX_TRANSFER_STATES
    states is refused before the walk starts."""
    bound = math.prod(d + 1 for d in cls.dims)
    if bound > MAX_TRANSFER_STATES:
        raise OrthoapartError(
            f"dims {list(cls.dims)} need {bound} transfer states (the product of d + 1), "
            f"over the limit {MAX_TRANSFER_STATES}"
        )
    n, k = cls.n, cls.rank
    r = cls.dims + (n - k,)
    # (column sums left, still diagonal) -> {sum C(c, 2) so far: (weight, least rank)}
    states = {(r, True): {0: (1, 0)}}
    for s, d in enumerate(cls.dims):
        after_row: dict = {}
        for (left, diagonal), cells in states.items():
            starts, all_orderings = [0, *accumulate(left)], _multinomial(left)
            for row in _rows(left, d):
                rest, remaining, orderings, rank, placed = list(left), starts[-1], all_orderings, 0, 0
                for t, c in row:
                    below = starts[t] - placed  # labels before t still to place
                    for _ in range(c):
                        rank += orderings * below // remaining
                        orderings = orderings * rest[t] // remaining
                        rest[t] -= 1
                        remaining -= 1
                    placed += c
                weight = _multinomial([c for _, c in row])
                alike = sum(c * (c - 1) // 2 for _, c in row)
                target = after_row.setdefault((tuple(rest), diagonal and row == [(s, d)]), {})
                for same, (w, first) in cells.items():
                    _merge(target, same + alike, w * weight, first + rank)
        states = after_row
    base = math.comb(n, 2) - 2 * sum(math.comb(x, 2) for x in r)
    result: dict = {}
    for (left, diagonal), cells in states.items():
        if not diagonal:
            overlap, weight = k - sum(left[:-1]), _multinomial(left)
            count = base + sum(c * (c - 1) // 2 for c in left)
            for same, (w, first) in cells.items():
                _merge(result, (overlap, count + same), w * weight, first)
    return result


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
        a.validate(ap.cls)
    support = _support_indices(i, members, ap.n)
    vecs = []
    for j in sorted(support):
        vecs.append(ap.frame.lines[j].line_vector())
    return projection_of(vecs, ambient_dim=ap.n)


def is_orthogonally_inexact(
    members: Sequence[Labeling], cls: ClassDescriptor
) -> Tuple[bool, Optional[PairIndex]]:
    """Decide whether some other apartment contains the whole member set.

    Inexact iff some S_i has dimension >= 2; the returned witness pair
    (i, j) satisfies: the set lies inside A(+i,+j) union A(-i,-j).  When
    exact, every S_i is a single line and the apartment is unique.  Only
    the labels are read, so no frame is needed.
    """
    if not members:
        # every S_i is the whole space
        return (True, PairIndex(0, 1)) if cls.n >= 2 else (False, None)
    for a in members:
        a.validate(cls)
    for i in range(cls.n):
        support = _support_indices(i, members, cls.n)
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
    inexact, _ = is_orthogonally_inexact(base, ap.cls)
    if not inexact:
        return False
    base_keys = {a.assignment for a in base}
    for a in enumerate_members(ap):
        if a.assignment in base_keys:
            continue
        extended, _ = is_orthogonally_inexact(base + [a], ap.cls)
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
    lab.validate(ap.cls)
    return lab
