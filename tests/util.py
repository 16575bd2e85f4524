"""Shared generators and independent oracles for the test suite.

Random objects are built from seeded `random.Random` instances so every run
is reproducible.  Rational frames are produced by composing coordinate-plane
rotations with Pythagorean-triple cosines, which keeps denominators small
while exercising genuinely non-coordinate subspaces.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice, permutations, product
from operator import mul
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from orthoapart import (
    Apartment,
    ClassDescriptor,
    Frame,
    Labeling,
    Matrix,
    PairIndex,
    SpectralOperator,
    Subspace,
    commutes,
    complement_within,
    image_of,
    intersect,
    materialize,
    orthogonal,
    projection_of,
    span_sum,
    split_into_lines,
)
from orthoapart import serialize
from orthoapart.apartments import (
    Slot,
    _member_assignments,
    _merge,
    _multinomial,
    _pair_mask,
    _rows,
    c_eval,
    enumerate_members,
    lemma3_bound,
    standard_apartment,
)
from orthoapart.cli import SCHEMA_VERSION
from orthoapart.errors import DimensionMismatch, IncompatibleFamily, OrthoapartError, SingularMatrix
from orthoapart.matrices import Vector, column_inner, gram_schmidt, projection_matrix, vector
from orthoapart.scalars import GaussianRational, as_scalar
from orthoapart.rigidity import MAX_BLOCKS, FiniteTransformation, GramWitness, _capped_multinomial

ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))

# small entries for exhaustive checks: zero, signs, a fraction, complex values
SMALL = [0, 1, -1, Fraction(1, 2), I, 1 - I]

PYTHAGOREAN = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17))]


def rotation_matrix(n: int, i: int, j: int, c: Fraction, s: Fraction) -> Matrix:
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][i], rows[i][j] = c, -s
    rows[j][i], rows[j][j] = s, c
    return Matrix(rows)


def random_unitary(n: int, rng: random.Random, rotations: int = 3) -> Matrix:
    """A rational orthogonal matrix: a few random plane rotations."""
    u = identity(n)
    if n < 2:
        return u
    for _ in range(rotations):
        i, j = rng.sample(range(n), 2)
        c, s = rng.choice(PYTHAGOREAN)
        if rng.random() < 0.5:
            s = -s
        u = rotation_matrix(n, i, j, c, s) @ u
    return u


def random_frame(n: int, rng: random.Random, rotations: int = 3) -> Frame:
    u = random_unitary(n, rng, rotations)
    lines = tuple(
        projection_of([[u[r, i] for r in range(n)]], ambient_dim=n) for i in range(n)
    )
    return Frame(n, lines)


def random_complex_frame(n: int, rng: random.Random, rotations: int = 3) -> Frame:
    """random_frame's unitary mixed further by complex rotations [[c, is], [is, c]]
    in random coordinate planes, so that entries are a + bi."""
    u = random_unitary(n, rng, rotations)
    for _ in range(rotations if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c, s = rng.choice(PYTHAGOREAN)
        rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        rows[i][i], rows[i][j], rows[j][i], rows[j][j] = c, I * s, I * s, c
        u = Matrix(rows) @ u
    return Frame(n, tuple(projection_of([[u[r, i] for r in range(n)]], ambient_dim=n) for i in range(n)))


def compositions(k: int):
    """Every ordered tuple of positive integers summing to k."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            yield (first,) + rest


def random_labeling(cls: ClassDescriptor, rng: random.Random) -> Labeling:
    indices = list(range(cls.n))
    rng.shuffle(indices)
    assignment: List = [None] * cls.n
    pos = 0
    for t, d in enumerate(cls.dims):
        for _ in range(d):
            assignment[indices[pos]] = t
            pos += 1
    return Labeling(tuple(assignment))


def random_operator(cls: ClassDescriptor, rng: random.Random, frame: Frame | None = None) -> SpectralOperator:
    frame = frame or random_frame(cls.n, rng)
    ap = Apartment(frame, cls)
    return random_labeling(cls, rng).to_operator(ap)


# ---------------------------------------------------------------------------
# Matrix helpers that only tests read: the package reads no trace, zero test
# or identity of a matrix, and decides compatibility on bases

def identity(n: int) -> Matrix:
    return Matrix([[int(i == j) for j in range(n)] for i in range(n)])


def den(m: Matrix) -> int:
    """The one denominator of m's integer entries."""
    return m._den


def is_zero(m: Matrix) -> bool:
    return m == Matrix.zeros(m.rows, m.cols)


def integer_trace(m: Matrix) -> Tuple[int, int]:
    """The numerators (re, im) of the trace over den(m)."""
    if m.rows != m.cols:
        raise DimensionMismatch("trace of a non-square matrix")
    re = sum(m._re[i][i] for i in range(m.rows))
    return re, 0 if m._im is None else sum(m._im[i][i] for i in range(m.rows))


def product_is_hermitian(a: Matrix, b: Matrix) -> bool:
    """a @ b equals its conjugate transpose, read on the product's integers."""
    z = a @ b
    return list(z._re) == list(zip(*z._re)) and (
        z._im is None or [tuple(-x for x in r) for r in z._im] == list(zip(*z._im)))


def oracle_product_compatible(x: Subspace, y: Subspace) -> bool:
    """`is_compatible` on projections, before bases: P_X P_Y = (P_X P_Y)*."""
    x._same_ambient(y)
    return product_is_hermitian(x.proj, y.proj)


def oracle_image_of(a: SpectralOperator) -> Subspace:
    """`image_of` on projections: the sum of the eigenspaces' projections."""
    proj = Matrix.zeros(a.n, a.n)
    for _, x in a.eigenspaces:
        proj = proj + x.proj
    return Subspace(proj)


def oracle_to_operator(labeling: Labeling, ap: Apartment) -> SpectralOperator:
    """`Labeling.to_operator` on projections: slot t's eigenspace is the
    subspace of the sum of the projections of the frame lines labeled t."""
    labeling.validate(ap.cls)
    eig = []
    for t, alpha in enumerate(ap.cls.alphas):
        proj = Matrix.zeros(ap.cls.n, ap.cls.n)
        for line, s in zip(ap.frame.lines, labeling.assignment):
            if s == t:
                proj = proj + line.proj
        eig.append((alpha, Subspace(proj)))
    return SpectralOperator(ap.cls, tuple(eig))


def oracle_witness_commuting_operator(a: SpectralOperator, y: Subspace) -> SpectralOperator:
    """`witness_commuting_operator`'s construction on projections: the lines of
    I - P_Im(A) by `split_into_lines`, joined to y or to zero one at a time by
    `span_sum`.  Builds the operator only; the argument checks are the package's."""
    cls = a.cls
    perp_lines = split_into_lines(Subspace(identity(cls.n) - oracle_image_of(a).proj))
    slot_for_y = min(range(cls.m), key=lambda s: cls.dims[s])
    eig, cursor = [], 0
    for s, (alpha, d) in enumerate(zip(cls.alphas, cls.dims)):
        space, need = (y, d - 1) if s == slot_for_y else (Subspace.zero(cls.n), d)
        for _ in range(need):
            space = span_sum(space, perp_lines[cursor])
            cursor += 1
        eig.append((alpha, space))
    return SpectralOperator(cls, tuple(eig))


# ---------------------------------------------------------------------------
# independent oracles

def matrices_commute(a: SpectralOperator, b: SpectralOperator) -> bool:
    ma, mb = materialize(a), materialize(b)
    return ma @ mb == mb @ ma


def matrices_orthogonal(a: SpectralOperator, b: SpectralOperator) -> bool:
    ma, mb = materialize(a), materialize(b)
    return is_zero(ma @ mb) and is_zero(mb @ ma)


def oracle_in_orthocomplementary(op: SpectralOperator, ap: Apartment, i: int, j: int) -> bool:
    """C_ij membership evaluated on the actual subspaces, not on labels:
    the complement of 'some eigenspace contains both lines' and 'the image
    is orthogonal to the plane of the two lines'."""
    li, lj = ap.frame.lines[i], ap.frame.lines[j]
    plus_plus = any(x.contains(li) and x.contains(lj) for _, x in op.eigenspaces)
    plane = span_sum(li, lj)
    minus_minus = image_of(op).is_orthogonal_to(plane)
    return not (plus_plus or minus_minus)


def oracle_n_count(a: SpectralOperator, b: SpectralOperator, ap: Apartment) -> int:
    n = ap.cls.n
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            if oracle_in_orthocomplementary(a, ap, i, j) and oracle_in_orthocomplementary(b, ap, i, j):
                total += 1
    return total


def lattice_compatible(x: Subspace, y: Subspace) -> bool:
    """Compatibility in lattice form: (X cap Y)^perp cap X is orthogonal to
    (X cap Y)^perp cap Y."""
    zp = intersect(x, y).perp()
    return intersect(zp, x).is_orthogonal_to(intersect(zp, y))


def lattice_refine(family: Sequence[Subspace]) -> Frame:
    """Frame refinement of a nonempty pairwise-compatible family through
    general intersections: drop zero and repeated members, then split the
    first splittable block against the first member that splits it into
    X cap Y and (X cap Y)^perp cap Y, restarting after every split."""
    n = family[0].ambient_dim
    members: List[Subspace] = []
    for x in family:
        if x.dim and x not in members:
            members.append(x)

    blocks: List[Subspace] = [Subspace.full(n)]
    changed = True
    while changed:
        changed = False
        for x in members:
            for bi, y in enumerate(blocks):
                z = intersect(x, y)
                if z.dim != 0 and z.dim != y.dim:
                    blocks[bi : bi + 1] = [z, complement_within(z, y)]
                    changed = True
                    break
            if changed:
                break

    lines: List[Subspace] = []
    for block in blocks:
        lines.extend(split_into_lines(block))
    return Frame(n, tuple(lines))


def grid_spaces(n, spanning):
    """The subspaces of C^n spanned by at most `spanning` vectors with entries
    in {0, 1, i, 1 - i}, with the zero and the full space."""
    vecs = [list(v) for v in product([0, 1, I, 1 - I], repeat=n)]
    spans = [[]] + [list(s) for k in range(1, spanning + 1) for s in combinations(vecs, k)]
    return sorted({projection_of(s, ambient_dim=n) for s in spans} | {Subspace.full(n)},
                  key=lambda x: (x.dim, repr(x.proj)))


def _refined_dim(family: Sequence[Subspace], ambient_dim: int | None) -> int:
    """The ambient dimension of a nonempty family, checked as `refine_to_frame` checks it."""
    n = family[0].ambient_dim
    if ambient_dim is not None and ambient_dim != n:
        raise OrthoapartError("ambient_dim disagrees with the family's ambient dimension")
    for i, x in enumerate(family):
        if x.ambient_dim != n:
            raise DimensionMismatch(
                f"family member {i} has ambient dimension {x.ambient_dim}, member 0 has {n}"
            )
    return n


def oracle_pairwise_refine_to_frame(family: Sequence[Subspace], ambient_dim: int | None = None) -> Frame:
    """`refine_to_frame` before exact traces: a pairwise compatibility scan up
    front, then one normalized product per member and block, compared with
    the block and subtracted from it through negation and addition."""
    if not family:
        if ambient_dim is None:
            raise OrthoapartError("ambient_dim required for an empty family")
        return Frame.standard(ambient_dim)
    n = _refined_dim(family, ambient_dim)
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if not oracle_product_compatible(family[i], family[j]):
                raise IncompatibleFamily(i, j)

    blocks: List[Subspace] = [Subspace.full(n)]
    for x in family:
        split: List[Subspace] = []
        for y in blocks:
            z = x.proj @ y.proj
            if is_zero(z) or z == y.proj:
                split.append(y)
            else:
                split += [Subspace(z), Subspace(y.proj + -z)]
        blocks = split

    lines: List[Subspace] = []
    for block in blocks:
        lines.extend(split_into_lines(block))
    return Frame(n, tuple(lines))


def frobenius(p: Matrix, q: Matrix) -> int:
    """Re tr(p q*) = sum re re' + im im' over den(p) * den(q): tr(p q) for
    Hermitian q, and tr(PQ) = |PQ|_F^2 for projections P, Q."""
    return sum(sum(map(mul, a, b)) + (sum(map(mul, c, d)) if c and d else 0)
               for (a, c), (b, d) in zip(p.integer_columns(), q.integer_columns()))


def is_hermitian(m: Matrix) -> bool:
    """m equals its conjugate transpose, read on the integers of m I."""
    return product_is_hermitian(m, identity(m.cols))


def lead_column(m: Matrix) -> Tuple[int, tuple]:
    """The index and the numerators (re, im) of the first nonzero column."""
    return next((j, (re, im)) for j, (re, im) in enumerate(m.integer_columns())
                if any(re) or im and any(im))


def diagonal(entries: Sequence) -> Matrix:
    d = vector(entries)
    return Matrix([[d[i] if i == j else ZERO for j in range(len(d))] for i in range(len(d))])


def oracle_product_lines(block: Subspace) -> List[Subspace]:
    """`split_into_lines` on projections: Gram-Schmidt over the block's
    integer projection columns, each line an n x n projection."""
    us = gram_schmidt(block.proj.integer_columns())
    return [Subspace(projection_matrix([u], block.ambient_dim)) for u in islice(us, block.dim)]


def oracle_refine_to_frame(family: Sequence[Subspace], ambient_dim: int | None = None) -> Frame:
    """`refine_to_frame` on projections, before bases: a block is kept whole
    when the integer Frobenius sum tr(P_X P_Y) is 0 or dim Y, and otherwise
    split into z = P_X P_Y, which must be self-adjoint, and P_Y - z; each
    block's lines are projections, and the frame checks their lead columns."""
    if not family:
        if ambient_dim is None:
            raise OrthoapartError("ambient_dim required for an empty family")
        return Frame.standard(ambient_dim)
    n = _refined_dim(family, ambient_dim)
    blocks: List[Subspace] = [Subspace(identity(n))]
    for x in family:
        p, split = x.proj, []
        for y in blocks:
            q = y.proj
            t = frobenius(p, q)  # tr(P_X P_Y) times den(p) * den(q)
            if not t or t == y.dim * den(p) * den(q):
                split.append(y)  # X is orthogonal to Y or contains it
                continue
            z = p @ q
            if not is_hermitian(z):  # name the pairwise scan's first pair
                raise next(IncompatibleFamily(i, j) for i, j in combinations(range(len(family)), 2)
                           if not oracle_product_compatible(family[i], family[j]))
            split += [Subspace(z), Subspace(q - z)]
        blocks = split
    lines = tuple(line for block in blocks for line in oracle_product_lines(block))
    cols = [lead_column(x.proj)[1] for x in lines]
    for i, j in combinations(range(n), 2):
        if any(column_inner(cols[i], cols[j])):
            raise OrthoapartError(f"frame lines {i} and {j} are not orthogonal")
    return Frame(n, lines)


def span_sum_image(op: SpectralOperator) -> Subspace:
    """Image of an operator as the span_sum fold of its eigenspaces."""
    img = Subspace.zero(op.n)
    for _, x in op.eigenspaces:
        img = span_sum(img, x)
    return img


# ---------------------------------------------------------------------------
# label helpers that only tests read: image masks, orthogonality and overlap
# of two members, their trace pairing, and unitary conjugation

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


def conjugate_operator(op: SpectralOperator, u: Matrix) -> SpectralOperator:
    """U A U* in spectral form: each eigenspace projection becomes
    U P U*.  u must be unitary for the result to stay in the class."""
    uh = Matrix(OracleMatrix.of(u).adjoint().entries())
    eig = tuple((a, Subspace(u @ x.proj @ uh)) for a, x in op.eigenspaces)
    return SpectralOperator(op.cls, eig)


def signed_permutation_matrix(n: int, perm: Sequence[int], signs: Sequence[int] | None = None) -> Matrix:
    """The unitary sending e_i to signs[i] * e_{perm[i]}."""
    signs = signs or [1] * n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[perm[i]][i] = signs[i]
    return Matrix(rows)


# ---------------------------------------------------------------------------
# oracles for the counterexample certificate: a general permutation of
# members, decided over all member pairs on labels and on matrices

class MemberPermutation(NamedTuple):
    """A bijection of members of one apartment of the class, given as a
    permutation of member indices: member s goes to member mapping[s]."""

    cls: ClassDescriptor
    members: Tuple[Labeling, ...]
    mapping: Tuple[int, ...]


def member_permutation(cls: ClassDescriptor, members, mapping) -> MemberPermutation:
    members, mapping = tuple(members), tuple(mapping)
    assert sorted(mapping) == list(range(len(members))), "mapping is not a permutation"
    for m in members:
        m.validate(cls)
    return MemberPermutation(cls, members, mapping)


def as_permutation(t: FiniteTransformation) -> MemberPermutation:
    """The transposition t of members a and b, over every member of the
    standard apartment."""
    members = tuple(enumerate_members(t.cls))
    rest = (None,) * (t.cls.n - t.cls.rank)
    ia, ib = (members.index(Labeling(x + rest)) for x in (t.a, t.b))
    mapping = list(range(len(members)))
    mapping[ia], mapping[ib] = ib, ia
    return member_permutation(t.cls, members, mapping)


def label_check_preservation(p: MemberPermutation, relation: str) -> bool:
    """The relation on every member pair against its image pair, read on
    labels: members of one apartment commute, and two are orthogonal iff
    their label images are disjoint."""
    rel = {"commute": lambda a, b: True, "orthogonal": labelings_orthogonal}[relation]
    d = p.members
    fd = [d[i] for i in p.mapping]
    return all(
        rel(d[s], d[u]) == rel(fd[s], fd[u])
        for s in range(len(d))
        for u in range(s + 1, len(d))
    )


def label_gram_obstruction(p: MemberPermutation) -> Optional[GramWitness]:
    """The first member pair, in (s, u) order, whose trace pairing on
    labels changes, or None."""
    d, cls = p.members, p.cls
    fd = [d[i] for i in p.mapping]
    for s in range(len(d)):
        for u in range(s + 1, len(d)):
            lhs = trace_pairing(d[s], d[u], cls)
            rhs = trace_pairing(fd[s], fd[u], cls)
            if lhs != rhs:
                return GramWitness(s, u, lhs, rhs)
    return None


def oracle_block_walk_obstruction(t: FiniteTransformation) -> Optional[GramWitness]:
    """gram_obstruction before it read the member enumeration: its own
    depth-first walk over the labels of the first k lines, a stack of x's
    pairings with a and with b per line, and a block's first index as the
    running sum of the sizes of the blocks before it.  The refusal check
    ahead of the walk is the package's, with its bytes."""
    cls, k, m = t.cls, t.cls.rank, t.cls.m
    cap = MAX_BLOCKS ** 3
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


def transformation_operators(t: MemberPermutation) -> List[SpectralOperator]:
    """The members of t as spectral operators, on the standard apartment."""
    ap = standard_apartment(t.cls)
    return [m.to_operator(ap) for m in t.members]


def oracle_check_preservation(t: MemberPermutation, relation: str) -> bool:
    rel = {"commute": commutes, "orthogonal": orthogonal}[relation]
    d = transformation_operators(t)
    for s in range(len(d)):
        for u in range(s + 1, len(d)):
            if rel(d[s], d[u]) != rel(d[t.mapping[s]], d[t.mapping[u]]):
                return False
    return True


def oracle_gram_obstruction(t: MemberPermutation) -> Optional[GramWitness]:
    mats = [materialize(op) for op in transformation_operators(t)]

    def tr(i, j):
        return product_trace(mats[i], mats[j]).re

    for s in range(len(mats)):
        for u in range(s + 1, len(mats)):
            lhs = tr(s, u)
            rhs = tr(t.mapping[s], t.mapping[u])
            if lhs != rhs:
                return GramWitness(s, u, lhs, rhs)
    return None


def permutation_inducer(t: MemberPermutation) -> Optional[Matrix]:
    """Search for a coordinate-permutation unitary U with
    f(A) = U A U* for every member.

    Only the apartment-aligned positive check: deciding general inducibility
    would need an intertwining solve with a unitarity constraint, which
    exact rational arithmetic cannot close.  Feasible for small n only.
    """
    if not t.members:
        return identity(0)
    n = t.cls.n
    mats = [materialize(op) for op in transformation_operators(t)]
    for perm in permutations(range(n)):
        u = signed_permutation_matrix(n, perm)
        uh = signed_permutation_matrix(n, [perm.index(i) for i in range(n)])
        if all(u @ mats[s] @ uh == mats[t.mapping[s]] for s in range(len(mats))):
            return u
    return None


# ---------------------------------------------------------------------------
# member-0 oracles for pair_cells: the transfer run again at each n, the
# joint-label tables listed one by one, the members read one by one, and the
# exhaustive pair walk

def oracle_member_row(cls: ClassDescriptor) -> List[Tuple[int, int]]:
    """(image overlap, n_count) of member 0 against each member t >= 1, in
    enumeration order, each counted from the definitions: the lines both
    label, and the pairs {i, j} on which both members' slots differ."""
    a, *rest = _member_assignments(cls)
    image = [i for i, s in enumerate(a) if s is not None]
    split = [(i, j) for i, j in combinations(range(cls.n), 2) if a[i] != a[j]]
    return [
        (sum(b[i] is not None for i in image), sum(b[i] != b[j] for i, j in split))
        for b in rest
    ]


def member_pairs(cls: ClassDescriptor) -> Iterator[Tuple[int, int, int, int]]:
    """(s, t, image overlap, n_count) for every member pair s < t, in (s, t)
    order: the exhaustive walk, for listing individual pairs."""
    masks = [(_pair_mask(a), _image_mask(a)) for a in _member_assignments(cls)]
    for s, (ps, qs) in enumerate(masks):
        for t in range(s + 1, len(masks)):
            pt, qt = masks[t]
            yield s, t, (qs & qt).bit_count(), (ps & pt).bit_count()


class JointTable(NamedTuple):
    """cells[s][t] = #{i : a_i = s, b_i = t} (None is slot m) for member 0, a,
    and `weight` members b other than a, each with this overlap and n_count."""

    cells: Tuple[Tuple[int, ...], ...]
    overlap: int
    count: int
    weight: int


def member_tables(cls: ClassDescriptor) -> Iterator[JointTable]:
    """The joint tables of member 0, which labels the first d_0 frame lines
    0, the next d_1 lines 1, ..., and the last n - k lines None.  Row and
    column sums are both r = (d_0, ..., d_{m-1}, n - k), and
      overlap = the sum of the cells with s and t both slots,
      count = C(n, 2) - 2 sum_s C(r_s, 2) + sum_{s,t} C(c_st, 2),
      weight = prod_s multinomial(r_s; c_s.) - [c is diagonal, i.e. b = a].
    S_n moves member 0 to any member and keeps both numbers, so a table of
    weight w stands for w*M/2 of the C(M, 2) member pairs.  The slot block
    fixes the other cells, so for n >= 2k the tables do not depend on n."""
    n, k, m = cls.n, cls.rank, cls.m
    r = cls.dims + (n - k,)
    base = math.comb(n, 2) - 2 * sum(math.comb(x, 2) for x in r)

    def blocks(s: int, left: Tuple[int, ...]):  # slot rows s.. within column sums left
        if s == m:
            yield (), left
            return
        for row in product(*(range(c + 1) for c in left)):
            if sum(row) <= cls.dims[s]:
                for rest, last in blocks(s + 1, tuple(c - x for c, x in zip(left, row))):
                    yield (row,) + rest, last

    for block, left in blocks(0, cls.dims):
        cells = tuple(row + (d - sum(row),) for row, d in zip(block + (left,), r))
        if cells[m][m] < 0:  # needs n >= 2k - overlap
            continue
        overlap = sum(map(sum, block))
        weight = math.prod(map(_multinomial, cells)) - all(cells[s][s] == x for s, x in enumerate(r))
        if weight:
            count = base + sum(math.comb(c, 2) for row in cells for c in row)
            yield JointTable(cells, overlap, count, weight)


def first_member_rank(cls: ClassDescriptor, cells: Sequence[Sequence[int]]) -> int:
    """The enumeration index of the first member with joint table `cells`.
    It sorts each of member 0's blocks ascending, slots before None, and is
    ranked among the orderings of the label multiset: a smaller label v at
    a place counts P * left[v] / remaining, P orderings of the labels left."""
    left, remaining, rank = list(cls.dims) + [cls.n - cls.rank], cls.n, 0
    orderings = _multinomial(left)
    for row in cells:
        for t, c in enumerate(row):
            for _ in range(c):
                rank += orderings * sum(left[:t]) // remaining
                orderings = orderings * left[t] // remaining
                left[t] -= 1
                remaining -= 1
    return rank


def oracle_pair_cells(cls: ClassDescriptor) -> dict:
    """pair_cells with each cell's least enumeration index in place of its
    prefix, by one transfer at this n: the None column is closed at n - k
    from the start, and each row adds to the least index an amount fixed by
    the state and the row, so the index is carried as a minimum."""
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


def oracle_joint_table(cls: ClassDescriptor, a, b) -> Tuple[Tuple[int, ...], ...]:
    """cells[s][t] = #{i : a_i = s, b_i = t}, None read as slot m."""
    cells = [[0] * (cls.m + 1) for _ in range(cls.m + 1)]
    for s, t in zip(a, b):
        cells[cls.m if s is None else s][cls.m if t is None else t] += 1
    return tuple(map(tuple, cells))


# ---------------------------------------------------------------------------
# exhaustive pair-scan oracles: the report of verify-lemma3, verify-lemma4
# and scan-boundary computed by walking all M(M-1)/2 member pairs

def _masks(cls: ClassDescriptor) -> Tuple[list, list, list]:
    members = list(enumerate_members(cls))
    pair_masks = [_pair_mask(m.assignment) for m in members]
    image_masks = [_image_mask(m.assignment) for m in members]
    return members, pair_masks, image_masks


def oracle_verify_lemma3(cls: ClassDescriptor) -> dict:
    n, k = cls.n, cls.rank
    members, pair_masks, image_masks = _masks(cls)
    bounds = [lemma3_bound(k, m, n) for m in range(k + 1)]
    violations = []
    histogram: dict = {}
    orth_pairs = 0
    orth_k2 = 0
    pairs_checked = 0
    for s in range(len(members)):
        ps, qs = pair_masks[s], image_masks[s]
        for t in range(s + 1, len(members)):
            pairs_checked += 1
            m = (qs & image_masks[t]).bit_count()
            count = (ps & pair_masks[t]).bit_count()
            bound = bounds[m]
            histogram.setdefault(m, {}).setdefault(count, 0)
            histogram[m][count] += 1
            if count < bound:
                violations.append(
                    {"pair": [s, t], "m": m, "count": count, "bound": bound}
                )
            if m == 0:
                orth_pairs += 1
                if count == k * k:
                    orth_k2 += 1
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-lemma3",
        "class": serialize.class_to_json(cls),
        "n": n,
        "k": k,
        "members": len(members),
        "pairs_checked": pairs_checked,
        "orthogonal_pairs": orth_pairs,
        "orthogonal_pairs_with_k_squared": orth_k2,
        "violations": violations,
        "counts_histogram": {
            str(m): sorted([c, f] for c, f in hist.items())
            for m, hist in sorted(histogram.items())
        },
    }


def oracle_verify_lemma4(cls: ClassDescriptor) -> dict:
    """The lemma-4 report, without the n >= 4k guard."""
    n, k = cls.n, cls.rank
    members, pair_masks, image_masks = _masks(cls)
    disagreements = []
    pairs_checked = 0
    k2 = k * k
    for s in range(len(members)):
        ps, qs = pair_masks[s], image_masks[s]
        for t in range(s + 1, len(members)):
            pairs_checked += 1
            by_count = (ps & pair_masks[t]).bit_count() == k2
            direct = qs & image_masks[t] == 0
            if by_count != direct:
                disagreements.append(
                    {"pair": [s, t], "by_count": by_count, "direct": direct}
                )
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-lemma4",
        "class": serialize.class_to_json(cls),
        "n": n,
        "k": k,
        "members": len(members),
        "pairs_checked": pairs_checked,
        "violations": disagreements,
    }


def oracle_scan_boundary(cls_dims: Tuple[int, ...], alphas, n_range: Tuple[int, int]) -> dict:
    k = sum(cls_dims)
    lo, hi = n_range
    ns = [n for n in range(lo, hi + 1) if 2 * k < n < 4 * k]
    entries = []
    for n in ns:
        cls = ClassDescriptor(n, tuple(alphas), tuple(cls_dims))
        c0 = c_eval(0, k, n)
        m_star = Fraction(4 * k - n, 2)
        integral = m_star.denominator == 1 and 0 < m_star < k
        entry = {
            "n": n,
            "c0": str(c0),
            "m_star": str(m_star),
            "m_star_integral": integral,
            "c_at_m_star": str(c_eval(m_star, k, n)) if integral else None,
            "c0_equals_c_m_star": bool(integral and c_eval(m_star, k, n) == c0),
        }
        members, pair_masks, image_masks = _masks(cls)
        k2 = k * k
        found = 0
        first_pair = None
        for s in range(len(members)):
            ps, qs = pair_masks[s], image_masks[s]
            for t in range(s + 1, len(members)):
                if qs & image_masks[t] != 0 and (ps & pair_masks[t]).bit_count() == k2:
                    found += 1
                    if first_pair is None:
                        first_pair = [s, t]
        entry["nonorthogonal_pairs_with_k_squared"] = found
        entry["first_such_pair"] = first_pair
        entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "scan-boundary",
        "k": k,
        "dims": list(cls_dims),
        "alphas": [str(a) for a in alphas],
        "entries": entries,
        "violations": [],
    }


# ---------------------------------------------------------------------------
# the member order before direct generation: every tuple, then a sort

def oracle_member_assignments(cls: ClassDescriptor) -> List[Tuple[Slot, ...]]:
    """The assignment tuples of all members of the class's apartments, in
    lexicographic order (slots before None at every position).  Labels do
    not depend on the frame, so this reads only n and the dims."""
    results: List[Tuple[Slot, ...]] = []

    def fill(assignment: List[Slot], slot: int, remaining: List[int]):
        if slot == cls.m:
            results.append(tuple(assignment))
            return
        for chosen in combinations(remaining, cls.dims[slot]):
            for i in chosen:
                assignment[i] = slot
            rest = [i for i in remaining if i not in chosen]
            fill(assignment, slot + 1, rest)
            for i in chosen:
                assignment[i] = None

    fill([None] * cls.n, 0, list(range(cls.n)))
    results.sort(key=lambda a: tuple(cls.m if s is None else s for s in a))
    return results


# ---------------------------------------------------------------------------
# the subset predicates A(+i,+j), A(-i,-j), A(+i,-j) and C_ij, one member at
# a time, and inexactness by intersecting one support set per line and member

def in_plus_plus(a: Labeling, p: PairIndex) -> bool:
    """Some maximal eigenspace contains both frame lines i and j."""
    si, sj = a.assignment[p.i], a.assignment[p.j]
    return si is not None and si == sj


def in_minus_minus(a: Labeling, p: PairIndex) -> bool:
    """The image is orthogonal to the plane spanned by lines i and j."""
    return a.assignment[p.i] is None and a.assignment[p.j] is None


def in_plus_minus(a: Labeling, i: int, j: int) -> bool:
    """Some maximal eigenspace contains line i and does not contain line j."""
    si = a.assignment[i]
    return si is not None and si != a.assignment[j]


def in_orthocomplementary(a: Labeling, p: PairIndex) -> bool:
    """Membership in C_ij = A(+i,-j) union A(+j,-i); coincides with the
    complement of A(+i,+j) union A(-i,-j)."""
    return in_plus_minus(a, p.i, p.j) or in_plus_minus(a, p.j, p.i)


def oracle_support_indices(i: int, members: Sequence[Labeling], n: int) -> set:
    """Index support of S_i: intersect, over the given members, the
    eigenspace containing line i (when line i is in the image) or the
    orthocomplement of the image (when it is not)."""
    s = set(range(n))
    for a in members:
        t = a.assignment[i]
        s &= {j for j, u in enumerate(a.assignment) if u == t}
    return s


def oracle_is_orthogonally_inexact(members: Sequence[Labeling], cls: ClassDescriptor):
    """Inexact iff some S_i has two or more lines; the witness is the least
    such i and the least other line of its support."""
    for a in members:
        a.validate(cls)
    for i in range(cls.n):
        support = oracle_support_indices(i, members, cls.n)
        if len(support) >= 2:
            return True, PairIndex(i, min(x for x in support if x != i))
    return False, None


def oracle_type_one_subset(p: PairIndex, cls: ClassDescriptor) -> List[Labeling]:
    """A(+i,+j) union A(-i,-j), read by the two predicates."""
    return [a for a in enumerate_members(cls) if in_plus_plus(a, p) or in_minus_minus(a, p)]


def oracle_verify_maximal_inexact(p: PairIndex, cls: ClassDescriptor) -> bool:
    """The type-(1) set at p is inexact and every single-member extension is
    exact, checked over every member of the class."""
    base = oracle_type_one_subset(p, cls)
    if not oracle_is_orthogonally_inexact(base, cls)[0]:
        return False
    base_keys = {a.assignment for a in base}
    return not any(
        oracle_is_orthogonally_inexact(base + [a], cls)[0]
        for a in enumerate_members(cls) if a.assignment not in base_keys
    )


# ---------------------------------------------------------------------------
# the matrix kernel before integer numerators: one Fraction pair per entry

class OracleMatrix:
    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_of_entries: Sequence[Sequence]):
        data = tuple(tuple(as_scalar(e) for e in row) for row in rows_of_entries)
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatch("ragged rows")
        self._data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    # -- constructors ------------------------------------------------------

    @classmethod
    def _raw(cls, data, rows: int, cols: int) -> "OracleMatrix":
        # internal fast path: entries are known-good scalars already
        m = cls.__new__(cls)
        m._data = tuple(tuple(r) for r in data)
        m.rows = rows
        m.cols = cols
        return m

    @classmethod
    def of(cls, m: Matrix) -> "OracleMatrix":
        """A package matrix, read through entry access."""
        return cls([[m[i, j] for j in range(m.cols)] for i in range(m.rows)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "OracleMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "OracleMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: int | None = None) -> "OracleMatrix":
        cols = [vector(c) for c in columns]
        if not cols:
            if rows is None:
                raise DimensionMismatch("row count needed for an empty column list")
            return cls.zeros(rows, 0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("columns of unequal length")
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "OracleMatrix":
        d = vector(entries)
        n = len(d)
        return cls([[d[i] if i == j else ZERO for j in range(n)] for i in range(n)])

    # -- access ------------------------------------------------------------

    def __getitem__(self, ij) -> GaussianRational:
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> Vector:
        return self._data[i]

    def column(self, j: int) -> Vector:
        return tuple(self._data[i][j] for i in range(self.rows))

    def columns(self) -> List[Vector]:
        return [self.column(j) for j in range(self.cols)]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "OracleMatrix") -> "OracleMatrix":
        self._same_shape(other)
        return OracleMatrix._raw(
            (
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._data, other._data)
            ),
            self.rows,
            self.cols,
        )

    def __sub__(self, other: "OracleMatrix") -> "OracleMatrix":
        self._same_shape(other)
        return OracleMatrix._raw(
            (
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._data, other._data)
            ),
            self.rows,
            self.cols,
        )

    def __neg__(self) -> "OracleMatrix":
        return OracleMatrix._raw(([-a for a in r] for r in self._data), self.rows, self.cols)

    def scale(self, c) -> "OracleMatrix":
        c = as_scalar(c)
        return OracleMatrix._raw(([c * a for a in r] for r in self._data), self.rows, self.cols)

    def __matmul__(self, other: "OracleMatrix") -> "OracleMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        orows = other._data
        out = []
        for r in self._data:
            acc = [ZERO] * other.cols
            for a, orow in zip(r, orows):
                if not a:  # projection matrices are often sparse
                    continue
                acc = [p if not b else p + a * b for p, b in zip(acc, orow)]
            out.append(acc)
        return OracleMatrix._raw(out, self.rows, other.cols)

    def apply(self, v: Sequence) -> Vector:
        v = vector(v)
        if self.cols != len(v):
            raise DimensionMismatch(f"{self.shape} applied to length-{len(v)} vector")
        return tuple(sum((a * b for a, b in zip(r, v)), ZERO) for r in self._data)

    def transpose(self) -> "OracleMatrix":
        return OracleMatrix._raw(zip(*self._data), self.cols, self.rows)

    def conj(self) -> "OracleMatrix":
        return OracleMatrix._raw(
            ([GaussianRational(a.re, -a.im) for a in r] for r in self._data), self.rows, self.cols
        )

    def adjoint(self) -> "OracleMatrix":
        """Conjugate transpose; an involution."""
        return self.transpose().conj()

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self._data[i][i] for i in range(self.rows)), ZERO)

    # -- predicates --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, OracleMatrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def is_zero(self) -> bool:
        return not any(a for r in self._data for a in r)

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.adjoint()

    # -- elimination -------------------------------------------------------

    def rref(self) -> Tuple["OracleMatrix", Tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        Pivoting takes the first nonzero entry in each column, which is exact
        over the rationals.
        """
        m = [list(r) for r in self._data]
        pivots: List[int] = []
        prow = 0
        for col in range(self.cols):
            if prow >= self.rows:
                break
            sel = next((r for r in range(prow, self.rows) if m[r][col]), None)
            if sel is None:
                continue
            m[prow], m[sel] = m[sel], m[prow]
            inv = ONE / m[prow][col]
            m[prow] = [inv * a for a in m[prow]]
            for r in range(self.rows):
                if r != prow and m[r][col]:
                    f = m[r][col]
                    m[r] = [a - f * b for a, b in zip(m[r], m[prow])]
            pivots.append(col)
            prow += 1
        return OracleMatrix._raw(m, self.rows, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[Vector]:
        """Basis of the right null space, one vector per free column."""
        r, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for f in free:
            v = [ZERO] * self.cols
            v[f] = ONE
            for row_idx, p in enumerate(pivots):
                v[p] = -r[row_idx, f]
            basis.append(tuple(v))
        return basis

    def column_space_basis(self) -> List[Vector]:
        """The pivot columns of the original matrix: a basis of the column space."""
        _, pivots = self.rref()
        return [self.column(j) for j in pivots]

    def inverse(self) -> "OracleMatrix":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        eye = OracleMatrix.identity(n)
        aug = OracleMatrix._raw(
            (list(self._data[i]) + list(eye._data[i]) for i in range(n)), n, 2 * n
        )
        r, pivots = aug.rref()
        if pivots != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return OracleMatrix._raw((row[n:] for row in r._data), n, n)

    # -- stacking ----------------------------------------------------------

    def hstack(self, other: "OracleMatrix") -> "OracleMatrix":
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return OracleMatrix._raw(
            (a + b for a, b in zip(self._data, other._data)),
            self.rows,
            self.cols + other.cols,
        )

    def vstack(self, other: "OracleMatrix") -> "OracleMatrix":
        if self.cols != other.cols:
            raise DimensionMismatch("vstack column mismatch")
        return OracleMatrix._raw(self._data + other._data, self.rows + other.rows, self.cols)

    # -- misc --------------------------------------------------------------

    def entries(self) -> Tuple[Tuple[GaussianRational, ...], ...]:
        return self._data

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self._data)
        return f"OracleMatrix[{self.rows}x{self.cols}]({body})"

    def _same_shape(self, other: "OracleMatrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")


def oracle_projection_of(vectors: Sequence[Sequence], ambient_dim: int) -> OracleMatrix:
    """P = V (V*V)^{-1} V* on the Fraction-entry oracle, V the pivot
    columns of the spanning vectors."""
    basis_cols = OracleMatrix.from_columns(vectors, rows=ambient_dim).column_space_basis()
    if not basis_cols:
        return OracleMatrix.zeros(ambient_dim, ambient_dim)
    v = OracleMatrix.from_columns(basis_cols, rows=ambient_dim)
    vh = v.adjoint()
    return v @ (vh @ v).inverse() @ vh


def oracle_intersect(x: Subspace, y: Subspace) -> OracleMatrix:
    """The projection onto x ^ y as the kernel of the stacked (P_x - I; P_y - I),
    on the Fraction-entry oracle."""
    eye = OracleMatrix.identity(x.ambient_dim)
    stacked = (OracleMatrix.of(x.proj) - eye).vstack(OracleMatrix.of(y.proj) - eye)
    return oracle_projection_of(stacked.kernel_basis(), ambient_dim=x.ambient_dim)


def pivot_basis(x: Subspace) -> List[Vector]:
    """An exact (not normalized) basis of x: the pivot columns of its projection."""
    return OracleMatrix.of(x.proj).column_space_basis()


def inner(u: Sequence, v: Sequence) -> GaussianRational:
    """Hermitian inner product <u, v> = sum conj(u_i) v_i."""
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} vs {len(v)}")
    return sum((GaussianRational(a.re, -a.im) * b for a, b in zip(vector(u), vector(v))), ZERO)


def apply(m: Matrix, v: Sequence) -> Vector:
    """The product m v, as a vector."""
    v = vector(v)  # a length mismatch raises DimensionMismatch in the product
    p = m @ (Matrix([[x] for x in v]) if v else Matrix.zeros(0, 1))
    return tuple(p[i, 0] for i in range(p.rows))


def product_trace(a: Matrix, b: Matrix) -> GaussianRational:
    """tr(ab), from the product's integer trace over its denominator."""
    z = a @ b
    re, im = integer_trace(z)
    return GaussianRational(Fraction(re, den(z)), Fraction(im, den(z)))


def contains_vector(x: Subspace, v: Sequence) -> bool:
    """v lies in x: P v = v."""
    v = vector(v)
    return apply(x.proj, v) == v


def _primitive_column(m: OracleMatrix) -> OracleMatrix:
    """The positive multiple of a column with coprime Gaussian-integer
    entries (zero stays zero)."""
    parts = [p for x in m.column(0) for p in (x.re, x.im)]
    den = math.lcm(*(p.denominator for p in parts))
    g = math.gcd(*(p.numerator * (den // p.denominator) for p in parts))
    return m.scale(Fraction(den, g)) if g else m


def oracle_orthogonal_columns(m: OracleMatrix) -> List[OracleMatrix]:
    """Gram-Schmidt on matrix products, as before the integer kernel: against
    each earlier output u, v becomes (u*u) v - (u*v) u, made primitive."""
    out: List[OracleMatrix] = []
    for column in m.columns():
        v = _primitive_column(OracleMatrix.from_columns([column]))
        for u in out:
            uh = u.adjoint()
            v = _primitive_column(v @ (uh @ u) - u @ (uh @ v))
        if not v.is_zero():
            out.append(v)
    return out


def oracle_split_into_lines(block: Subspace) -> List[Subspace]:
    """Lines of a block by Gram-Schmidt on Gaussian-rational scalars, each
    line through P = V (V*V)^{-1} V*, as before the integer kernel."""
    out: List[Vector] = []
    for v in pivot_basis(block):
        for u in out:
            c = inner(u, v) / inner(u, u)
            v = tuple(a - c * b for a, b in zip(v, u))
        out.append(v)
    return [projection_of([u], ambient_dim=block.ambient_dim) for u in out]


def oracle_vector_from_json(data, where: str) -> Vector:
    """A file's vector as Gaussian-rational scalars, each through parse_scalar,
    as `serialize` read it before integer columns."""
    items = serialize._list(data, where)
    return vector([serialize._scalar(s, f"{where}[{i}]") for i, s in enumerate(items)])


def oracle_family_from_json(data, ambient_dim: Optional[int] = None) -> List[Subspace]:
    """The family reader before integer columns: vector() on the parsed
    scalars, then projection_of, which ran vector() on each vector again."""
    out = []
    for i, spanning in enumerate(serialize._list(data, "family")):
        where = f"family[{i}]"
        vecs = [oracle_vector_from_json(v, f"{where}[{j}]")
                for j, v in enumerate(serialize._list(spanning, where))]
        out.append(projection_of(vecs, ambient_dim=ambient_dim))
    return out


def oracle_scalar_str(z: GaussianRational) -> str:
    """str() of a scalar as written from its Fraction parts before `scalar_text`."""
    if z.im == 0:
        return str(z.re)
    im = f"{z.im}i" if z.im < 0 else f"+{z.im}i"
    if z.re == 0:
        return f"{z.im}i"
    return f"{z.re}{im}"


def oracle_line_text(line: Subspace) -> List[str]:
    """A frame line as `frame_to_json` wrote it before reading numerators:
    each entry of its first nonzero projection column, written from its
    Fraction parts."""
    lead = next(c for c in OracleMatrix.of(line.proj).columns() if any(c))
    return [oracle_scalar_str(x) for x in lead]


def oracle_is_compatible(x: Subspace, y: Subspace) -> bool:
    """P_X P_Y = (P_X P_Y)* on the normalized product, read into the
    Fraction-entry oracle, and its adjoint."""
    z = OracleMatrix.of(x.proj @ y.proj)
    return z == z.adjoint()


def oracle_dim(x: Subspace) -> int:
    """dim as the trace of the projection, read as a GaussianRational."""
    tr = OracleMatrix.of(x.proj).trace()
    if not tr.is_real or tr.re.denominator != 1:
        raise ValueError("projection trace is not an integer; corrupt subspace")
    return int(tr.re)


# ---------------------------------------------------------------------------
# frozen-dataclass twins of the value classes: oracles for the generated
# methods (==, hash, repr, frozenness, the constructor's signature) and for
# the normalizing part of each class's construction.  Validation is tested
# on the classes themselves.

def _named_as(model: type):
    """Give a twin its model's name, so that the two reprs compare equal."""

    def rename(twin: type) -> type:
        twin.__name__ = twin.__qualname__ = model.__name__
        return twin

    return rename


@_named_as(GaussianRational)
@dataclass(frozen=True)
class GaussianRationalTwin:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    def __eq__(self, other):
        if isinstance(other, GaussianRationalTwin):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


@_named_as(ClassDescriptor)
@dataclass(frozen=True)
class ClassDescriptorTwin:
    n: int
    alphas: Tuple[Fraction, ...]
    dims: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(Fraction(a) for a in self.alphas))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


@_named_as(SpectralOperator)
@dataclass(frozen=True)
class SpectralOperatorTwin:
    cls: ClassDescriptor
    eigenspaces: Tuple[Tuple[Fraction, Subspace], ...]

    def __post_init__(self):
        object.__setattr__(self, "eigenspaces", tuple((Fraction(a), x) for a, x in self.eigenspaces))


@_named_as(Frame)
@dataclass(frozen=True)
class FrameTwin:
    ambient_dim: int
    lines: Tuple[Subspace, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))


@_named_as(Apartment)
@dataclass(frozen=True)
class ApartmentTwin:
    frame: Frame
    cls: ClassDescriptor


@_named_as(PairIndex)
@dataclass(frozen=True)
class PairIndexTwin:
    i: int
    j: int

    def __post_init__(self):
        if self.i > self.j:
            i, j = self.j, self.i
            object.__setattr__(self, "i", i)
            object.__setattr__(self, "j", j)


@_named_as(Labeling)
@dataclass(frozen=True)
class LabelingTwin:
    assignment: Tuple[Slot, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(self.assignment))


@_named_as(FiniteTransformation)
@dataclass(frozen=True)
class FiniteTransformationTwin:
    cls: ClassDescriptor
    a: Tuple[int, ...]
    b: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))


@_named_as(GramWitness)
@dataclass(frozen=True)
class GramWitnessTwin:
    s: int
    t: int
    lhs: Fraction
    rhs: Fraction


TWINS = {
    GaussianRational: GaussianRationalTwin,
    ClassDescriptor: ClassDescriptorTwin,
    SpectralOperator: SpectralOperatorTwin,
    Frame: FrameTwin,
    Apartment: ApartmentTwin,
    PairIndex: PairIndexTwin,
    Labeling: LabelingTwin,
    FiniteTransformation: FiniteTransformationTwin,
    GramWitness: GramWitnessTwin,
}
