"""Shared generators and independent oracles for the test suite.

Random objects are built from seeded `random.Random` instances so every run
is reproducible.  Rational frames are produced by composing coordinate-plane
rotations with Pythagorean-triple cosines, which keeps denominators small
while exercising genuinely non-coordinate subspaces.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence

from orthoapart import (
    Apartment,
    ClassDescriptor,
    Frame,
    Labeling,
    Matrix,
    SpectralOperator,
    Subspace,
    complement_within,
    image_of,
    intersect,
    materialize,
    projection_of,
    span_sum,
    split_into_lines,
)

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
