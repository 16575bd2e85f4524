"""Shared generators and independent oracles for the test suite.

Random objects are built from seeded `random.Random` instances so every run
is reproducible.  Rational frames are produced by composing coordinate-plane
rotations with Pythagorean-triple cosines, which keeps denominators small
while exercising genuinely non-coordinate subspaces.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from typing import List, Optional, Sequence, Tuple

from orthoapart import (
    Apartment,
    ClassDescriptor,
    Frame,
    Labeling,
    Matrix,
    SpectralOperator,
    Subspace,
    commutes,
    complement_within,
    image_of,
    intersect,
    materialize,
    orthogonal,
    projection_of,
    signed_permutation_matrix,
    span_sum,
    split_into_lines,
)
from orthoapart import serialize
from orthoapart.apartments import (
    _image_mask,
    _member_assignments,
    _pair_mask,
    c_eval,
    enumerate_members,
    lemma3_bound,
    standard_apartment,
)
from orthoapart.cli import SCHEMA_VERSION
from orthoapart.rigidity import FiniteTransformation, GramWitness

PYTHAGOREAN = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17))]


def rotation_matrix(n: int, i: int, j: int, c: Fraction, s: Fraction) -> Matrix:
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][i], rows[i][j] = c, -s
    rows[j][i], rows[j][j] = s, c
    return Matrix(rows)


def random_unitary(n: int, rng: random.Random, rotations: int = 3) -> Matrix:
    """A rational orthogonal matrix: a few random plane rotations."""
    u = Matrix.identity(n)
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
        projection_of([u.column(i)], ambient_dim=n) for i in range(n)
    )
    return Frame(n, lines)


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
# independent oracles

def matrices_commute(a: SpectralOperator, b: SpectralOperator) -> bool:
    ma, mb = materialize(a), materialize(b)
    return ma @ mb == mb @ ma


def matrices_orthogonal(a: SpectralOperator, b: SpectralOperator) -> bool:
    ma, mb = materialize(a), materialize(b)
    return (ma @ mb).is_zero() and (mb @ ma).is_zero()


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
    n = ap.n
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
        if not x.is_zero() and x not in members:
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


def span_sum_image(op: SpectralOperator) -> Subspace:
    """Image of an operator as the span_sum fold of its eigenspaces."""
    img = Subspace.zero(op.n)
    for _, x in op.eigenspaces:
        img = span_sum(img, x)
    return img


# ---------------------------------------------------------------------------
# operator-matrix oracles for the counterexample certificate: the relations
# and the trace pairing evaluated on the materialized members

def oracle_check_preservation(t: FiniteTransformation, relation: str) -> bool:
    rel = {"commute": commutes, "orthogonal": orthogonal}[relation]
    d = [t.operator(s) for s in range(len(t.members))]
    for s in range(len(d)):
        for u in range(s + 1, len(d)):
            if rel(d[s], d[u]) != rel(d[t.mapping[s]], d[t.mapping[u]]):
                return False
    return True


def oracle_gram_obstruction(t: FiniteTransformation) -> Optional[GramWitness]:
    mats = [materialize(t.operator(s)) for s in range(len(t.members))]

    def tr(i, j):
        return (mats[i] @ mats[j]).trace().re

    for s in range(len(mats)):
        for u in range(s + 1, len(mats)):
            lhs = tr(s, u)
            rhs = tr(t.mapping[s], t.mapping[u])
            if lhs != rhs:
                return GramWitness(s, u, lhs, rhs)
    return None


def permutation_inducer(t: FiniteTransformation) -> Optional[Matrix]:
    """Search for a coordinate-permutation unitary U with
    f(A) = U A U* for every member.

    Only the apartment-aligned positive check: deciding general inducibility
    would need an intertwining solve with a unitarity constraint, which
    exact rational arithmetic cannot close.  Feasible for small n only.
    """
    if not t.members:
        return Matrix.identity(0)
    n = t.apartment.n
    mats = [materialize(t.operator(s)) for s in range(len(t.members))]
    for perm in permutations(range(n)):
        u = signed_permutation_matrix(n, perm)
        uh = u.adjoint()
        if all(u @ mats[s] @ uh == mats[t.mapping[s]] for s in range(len(mats))):
            return u
    return None


# ---------------------------------------------------------------------------
# member-0 oracles for the joint-label tables: every member read one by one

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


def oracle_joint_table(cls: ClassDescriptor, a, b) -> Tuple[Tuple[int, ...], ...]:
    """cells[s][t] = #{i : a_i = s, b_i = t}, None read as slot m."""
    cells = [[0] * (cls.m + 1) for _ in range(cls.m + 1)]
    for s, t in zip(a, b):
        cells[cls.m if s is None else s][cls.m if t is None else t] += 1
    return tuple(map(tuple, cells))


# ---------------------------------------------------------------------------
# exhaustive pair-scan oracles: the report of verify-lemma3, verify-lemma4
# and scan-boundary computed by walking all M(M-1)/2 member pairs

def _masks(ap: Apartment) -> Tuple[list, list, list]:
    members = list(enumerate_members(ap))
    pair_masks = [_pair_mask(m.assignment) for m in members]
    image_masks = [_image_mask(m.assignment) for m in members]
    return members, pair_masks, image_masks


def oracle_verify_lemma3(cls: ClassDescriptor) -> dict:
    n, k = cls.n, cls.rank
    ap = standard_apartment(cls)
    members, pair_masks, image_masks = _masks(ap)
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
    ap = standard_apartment(cls)
    members, pair_masks, image_masks = _masks(ap)
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
        ap = standard_apartment(cls)
        members, pair_masks, image_masks = _masks(ap)
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
