"""Orthogonal apartments of a conjugacy class and the counting machinery
for orthocomplementary subsets.

An apartment is the set of class members whose maximal eigenspaces are
spanned by subsets of one frame.  Members are stored combinatorially: a
labeling assigns to each frame line either an eigenvalue slot or nothing
(the kernel), with exactly dims[t] lines per slot t.  All the subset
predicates are label comparisons, so counting is exact by construction, and
a scan of all member pairs reads member 0's (overlap, count) cells
(pair_cells) off one transfer over its slot rows, which does not depend on
n (slot_transfer), read at each n (read_cells).

Inexactness is read from label columns: two frame lines lie in one S_i
exactly when every member labels them alike, so one grouping of the lines
by their column of labels decides is_orthogonally_inexact.  The type-(1)
sets T_ij, the members labeling lines i and j alike, are the maximal
inexact sets by an identity (verify_maximal_inexact).

Labels, counts and pairings are the same in every apartment of a class, so
only Labeling.to_operator, which reads frame lines, takes an Apartment; the
rest take the class.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .compatibility import Frame
from .errors import NotAMember, OrthoapartError, ThresholdViolation, Value
from .operators import ClassDescriptor, SpectralOperator
from .subspaces import Subspace

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

    def validate(self, cls: ClassDescriptor) -> None:
        a = self.assignment
        if len(a) != cls.n:
            raise NotAMember(f"labeling length {len(a)} in an apartment of dimension {cls.n}")
        counts = Counter(a)
        for t, d in enumerate(cls.dims):
            if counts[t] != d:
                raise NotAMember(f"slot {t} does not receive exactly {d} frame lines")
        if counts[None] != cls.n - cls.rank:  # so some entry is neither a slot nor None
            i = next(i for i, s in enumerate(a) if s is not None and s not in range(cls.m))
            raise NotAMember(f"frame line {i} has label {a[i]!r}, neither a slot nor None")

    def to_operator(self, ap: Apartment) -> SpectralOperator:
        """The spectral operator whose eigenspace for slot t is the sum of
        the frame lines labeled t, spanned by their orthogonal columns."""
        self.validate(ap.cls)
        cols = [line.basis[0] for line in ap.frame.lines]
        eig = tuple((alpha, Subspace.spanned_by([u for u, s in zip(cols, self.assignment) if s == t], ap.cls.n))
                    for t, alpha in enumerate(ap.cls.alphas))
        return SpectralOperator(ap.cls, eig)


# ---------------------------------------------------------------------------
# enumeration

def member_count(cls: ClassDescriptor) -> int:
    """n! / (d_1! ... d_m! (n-k)!), the members of an apartment of the class."""
    return _multinomial(cls.dims + (cls.n - cls.rank,))


def _member_assignments(cls: ClassDescriptor, length: Optional[int] = None) -> Iterator[Tuple[Slot, ...]]:
    """The distinct labels of the first `length` frame lines (all n by
    default) over the members of the class's apartments, in lexicographic
    order (slots before None at every position), yielded in that order by a
    depth-first walk: position by position, each label with lines left,
    slots first, the rest of the positions up to `length` filled at once
    when fewer than two labels have lines left.  Labels do not depend on
    the frame, so this reads n and the dims."""
    length = cls.n if length is None else length
    labels, left = [*range(cls.m), None], [*cls.dims, cls.n - cls.rank]
    x: List[int] = []  # the label indices of the positions so far
    label = 0  # the next label index to try at position len(x); 0 on arrival
    while True:
        if not label and (len(x) == length or sum(map(bool, left)) < 2):
            # at most one label has lines left unless x is full, so the rest is forced
            need = length - len(x)
            yield tuple([labels[s] for s in x] + [labels[s] for s, c in enumerate(left) for _ in range(min(c, need))])
            label = len(labels)
        while label < len(labels) and not left[label]:
            label += 1
        if label < len(labels):
            left[label] -= 1
            x.append(label)
            label = 0
        elif x:
            label = x.pop()
            left[label] += 1
            label += 1
        else:
            return


def enumerate_members(cls: ClassDescriptor) -> Iterator[Labeling]:
    """All members of an apartment of the class, each exactly once, in
    lexicographic order of the assignment tuple (slots before None)."""
    for a in _member_assignments(cls):
        yield Labeling(a)


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


def n_count(a: Labeling, b: Labeling, cls: ClassDescriptor) -> int:
    """The number of orthocomplementary subsets C_ij containing both members."""
    a.validate(cls)
    b.validate(cls)
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


def _merge(cells: dict, key, weight: int, first) -> None:
    """Add weight to cells[key] and keep the least first member."""
    w, f = cells.get(key, (0, first))
    cells[key] = (w + weight, min(f, first))


def slot_transfer(dims: Tuple[int, ...]) -> dict:
    """pair_cells' transfer over a's slot rows, for every n at once: state
    (column sums left, still diagonal) -> {sum C(c, 2) so far: (weight, least
    prefix)}, the None column opened at capacity k, which no slot row can
    exhaust.  A prefix is b's labels on a's k slot lines, None read as m.  A
    class of more than MAX_TRANSFER_STATES states is refused at once."""
    bound = math.prod(d + 1 for d in dims)
    if bound > MAX_TRANSFER_STATES:
        raise OrthoapartError(f"dims {list(dims)} need {bound} transfer states (the product of "
                              f"d + 1), over the limit {MAX_TRANSFER_STATES}")
    states = {(dims + (sum(dims),), True): {0: (1, ())}}
    for s, d in enumerate(dims):
        after_row: dict = {}
        for (left, diagonal), cells in states.items():
            for row in _rows(left, d):
                rest = list(left)
                for t, c in row:
                    rest[t] -= c
                labels = tuple(t for t, c in row for _ in range(c))
                weight = _multinomial([c for _, c in row])
                alike = sum(c * (c - 1) // 2 for _, c in row)
                target = after_row.setdefault((tuple(rest), diagonal and row == [(s, d)]), {})
                for same, (w, prefix) in cells.items():
                    _merge(target, same + alike, w * weight, prefix + labels)
        states = after_row
    return states


def read_cells(transfer: dict, cls: ClassDescriptor) -> dict:
    """(overlap, n_count) -> (weight, least prefix) at cls.n off slot_transfer.
    A state with o of its k None places left has overlap o and is feasible
    iff k - o <= n - k; the forced None row joins its multinomial to the
    weight and its C(c, 2) terms to the count.  a itself is dropped."""
    n, k = cls.n, cls.rank
    base = math.comb(n, 2) - 2 * sum(math.comb(x, 2) for x in cls.dims + (n - k,))
    result: dict = {}
    for (left, diagonal), cells in transfer.items():
        overlap = left[-1]
        row = left[:-1] + (n - 2 * k + overlap,)
        if not diagonal and row[-1] >= 0:
            weight = _multinomial(row)
            count = base + sum(c * (c - 1) // 2 for c in row)
            for same, (w, prefix) in cells.items():
                _merge(result, (overlap, count + same), w * weight, prefix)
    return result


def first_index(prefix: Tuple[int, ...], cls: ClassDescriptor) -> int:
    """The enumeration index of the member with this prefix on a's slot lines
    and its other labels ascending: its rank among the label orderings, a
    smaller label v at a place counting P * left[v] / (places left)."""
    left, remaining, rank = [*cls.dims, cls.n - cls.rank], cls.n, 0
    orderings = _multinomial(left)
    for t in prefix:
        rank += orderings * sum(left[:t]) // remaining
        orderings = orderings * left[t] // remaining
        left[t] -= 1
        remaining -= 1
    return rank


def pair_cells(cls: ClassDescriptor) -> Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]]:
    """(overlap, n_count) against member 0 -> (weight, prefix): the number of
    other members in that cell and the least of them, as its labels on
    member 0's slot lines (first_index gives its index).

    Member 0, a, labels the first d_0 frame lines 0, the next d_1 lines 1,
    ..., and the last n - k lines None.  A member b meets it in the joint
    table c[s][t] = #{i : a_i = s, b_i = t} (None is slot m), with row and
    column sums r = (d_0, ..., d_{m-1}, n - k).  The table gives
      overlap = the sum of the cells with s and t both slots,
      count = C(n, 2) - 2 sum_s C(r_s, 2) + sum_{s,t} C(c_st, 2),
      #members = prod_s multinomial(r_s; c_s.),
    and its first member sorts each of a's blocks ascending, slots before
    None.  Only the column sums couple a's rows, so a transfer walks the slot
    rows (slot_transfer), at most prod_t (d_t + 1) states after each besides
    the diagonal one, and read_cells closes the None row at n.  Members
    compare on a's slot lines first, so the least prefix is the least member
    and prefix order is index order, at every n.

    S_n moves member 0 to any member and keeps both numbers, so a cell of
    weight w holds w*M/2 of the C(M, 2) member pairs, the first in (s, t)
    order being [0, first_index(prefix, cls)]."""
    return read_cells(slot_transfer(cls.dims), cls)


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

def _line_groups(members: Sequence[Labeling], n: int) -> List[List[int]]:
    """The frame lines grouped by their column of labels, one label per
    member, each group ascending and the groups in order of their least
    line.  Lines i and j lie in one S_i exactly when every member gives them
    the same label, so the group of i spans S_i.  With no members, one group
    holds every line."""
    groups: Dict[Tuple[Slot, ...], List[int]] = {}
    columns = zip(*(a.assignment for a in members)) if members else [()] * n
    for i, column in enumerate(columns):
        groups.setdefault(column, []).append(i)
    return list(groups.values())


def is_orthogonally_inexact(
    members: Sequence[Labeling], cls: ClassDescriptor
) -> Tuple[bool, Optional[PairIndex]]:
    """Decide whether some other apartment contains the whole member set.

    Inexact iff some S_i has dimension >= 2, that is iff two frame lines
    carry the same label in every member.  The witness (i, j) is the least
    line i of the first group of such lines and the next line j of that
    group, and the set lies inside A(+i,+j) union A(-i,-j).  When exact,
    every S_i is a single line and the apartment is unique.  Only the labels
    are read, in one pass over the members, so no frame is needed.
    """
    if not members:
        # every S_i is the whole space
        return (True, PairIndex(0, 1)) if cls.n >= 2 else (False, None)
    for a in members:
        a.validate(cls)
    group = next((g for g in _line_groups(members, cls.n) if len(g) >= 2), None)
    return (False, None) if group is None else (True, PairIndex(group[0], group[1]))


def verify_maximal_inexact(p: PairIndex, cls: ClassDescriptor) -> bool:
    """Check that the type-(1) set T_p at pair p is orthogonally inexact and
    that every single-member extension is exact.  Always True for a pair of
    frame lines, by identity.

    A member set is inexact iff two lines i, j carry the same label in every
    member, that is iff it lies inside T_ij (with no members, iff n >= 2).
    So T_p is inexact.  S_n acts on the members and takes any pair of lines
    to any other, so every T_q has the same size, and T_p inside T_q forces
    T_p = T_q.  A member x outside T_p therefore leaves T_p + {x} inside no
    T_q: every single-member extension is exact."""
    if not 0 <= p.i < p.j < cls.n:
        raise OrthoapartError(f"pair ({p.i}, {p.j}) is not a pair of frame lines 0..{cls.n - 1}")
    return True


def decide_orthogonality_by_count(a: Labeling, b: Labeling, cls: ClassDescriptor) -> bool:
    """Orthogonality via counting: n_count == k^2.  Only valid for n >= 4k."""
    k = cls.rank
    if cls.n < 4 * k:
        raise ThresholdViolation(
            f"counting characterization needs n >= 4k (n={cls.n}, k={k})"
        )
    return n_count(a, b, cls) == k * k
