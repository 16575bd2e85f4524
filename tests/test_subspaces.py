import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from orthoapart.errors import DimensionMismatch
from orthoapart.matrices import Matrix, column_inner, gram_schmidt, projection_matrix
from orthoapart.scalars import GaussianRational
from orthoapart.subspaces import (
    Subspace,
    complement_within,
    intersect,
    projection_of,
    span_sum,
)

from util import (
    SMALL,
    I,
    OracleMatrix,
    contains_vector,
    diagonal,
    grid_spaces,
    oracle_intersect,
    oracle_projection_of,
    random_unitary,
)


def e(n, i):
    return [1 if j == i else 0 for j in range(n)]


def hand_projection(columns, n):
    """Independent evaluation of V (V*V)^-1 V* used to freeze expected values."""
    v = OracleMatrix.from_columns(columns, rows=n)
    return Matrix((v @ (v.adjoint() @ v).inverse() @ v.adjoint()).entries())


def test_projection_coordinate_axis():
    p = projection_of([e(2, 0)])
    assert p.proj == diagonal([1, 0])
    assert p.dim == 1


def test_projection_diagonal_line():
    # oracle: V(V*V)^{-1}V* computed by the independent helper
    expected = hand_projection([[1, 1]], 2)
    p = projection_of([[1, 1]])
    assert p.proj == expected
    assert p.proj == Matrix([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])


def test_projection_empty_is_zero():
    p = projection_of([], ambient_dim=3)
    assert p == Subspace.zero(3)


def test_projection_invariants():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        vecs = [
            [
                GaussianRational(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                )
                for _ in range(n)
            ]
            for _ in range(rng.randint(0, n))
        ]
        p = projection_of(vecs, ambient_dim=n)
        assert p.proj @ p.proj == p.proj
        o = OracleMatrix.of(p.proj)
        assert o == o.adjoint()
        for v in vecs:
            assert contains_vector(p, v)


def test_projection_of_matches_oracle_on_every_small_spanning_set():
    """Every set of at most two vectors of C^2 with entries in SMALL, zero
    and dependent ones included, each also with a repeated and a scaled
    copy of its first vector; then seeded sets of up to four vectors of
    C^3.  The oracle is P = V (V*V)^{-1} V* on Fraction entries."""
    vecs = [list(v) for v in product(SMALL, repeat=2)]
    sets = [[]] + [[u] for u in vecs] + [[u, v] for u in vecs for v in vecs]
    sets += [s + [s[0], [x * (2 * I - 3) for x in s[0]]] for s in sets[1:len(vecs) + 1]]
    rng = random.Random(19)
    sets3 = [[[rng.choice(SMALL) for _ in range(3)] for _ in range(rng.randint(0, 4))]
             for _ in range(300)]
    for n, spanning in [(2, s) for s in sets] + [(3, s) for s in sets3]:
        expected = oracle_projection_of(spanning, ambient_dim=n)
        assert OracleMatrix.of(projection_of(spanning, ambient_dim=n).proj) == expected, spanning


def test_projection_basis_independent():
    # two spanning sets of the same plane give entrywise equal projections
    a = projection_of([[1, 0, 1], [0, 1, 1]])
    b = projection_of([[1, 1, 2], [1, -1, 0], [2, 0, 2]])
    assert a == b


def test_intersect_idempotent():
    x = projection_of([[1, 2, 3]])
    assert intersect(x, x) == x


def test_intersect_planes():
    x = projection_of([e(4, 0), e(4, 1)])
    y = projection_of([e(4, 1), e(4, 2)])
    assert intersect(x, y) == projection_of([e(4, 1)])


def test_intersect_orthogonal_is_zero():
    x = projection_of([e(3, 0)])
    y = projection_of([e(3, 1)])
    assert intersect(x, y) == Subspace.zero(3)


def test_sum_examples():
    x = projection_of([e(3, 0)])
    assert span_sum(x, Subspace.zero(3)) == x
    assert span_sum(x, projection_of([e(3, 1)])) == projection_of([e(3, 0), e(3, 1)])
    assert span_sum(x, projection_of([[1, 1, 0]])) == projection_of([e(3, 0), e(3, 1)])


def test_complement_within_examples():
    y = projection_of([e(2, 0), e(2, 1)])
    assert complement_within(Subspace.zero(2), y) == y
    assert complement_within(projection_of([e(2, 0)]), y) == projection_of([e(2, 1)])
    assert complement_within(projection_of([[1, 1]]), y) == projection_of([[1, -1]])


def test_perp_dimension():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 5)
        dim = rng.randint(0, n)
        u = random_unitary(n, rng)
        x = projection_of([[u[r, i] for r in range(n)] for i in range(dim)], ambient_dim=n)
        assert x.dim + x.perp().dim == n
        assert x.is_orthogonal_to(x.perp())


def test_modular_dimension_identity():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 5)
        def rand_space():
            count = rng.randint(0, n)
            return projection_of(
                [
                    [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(count)
                ],
                ambient_dim=n,
            )
        x, y = rand_space(), rand_space()
        assert x.dim + y.dim == span_sum(x, y).dim + intersect(x, y).dim


def test_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        intersect(projection_of([e(2, 0)]), projection_of([e(3, 0)]))
    with pytest.raises(DimensionMismatch):
        projection_of([[1, 0], [1, 0, 0]])


def test_orthogonalize_exact():
    vecs = [[1, 1, 0], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
    out = list(gram_schmidt(Matrix(list(zip(*vecs))).integer_columns()))
    assert len(out) == 3
    for u, v in combinations(out, 2):
        assert column_inner(u, v) == (0, 0)
    assert projection_matrix(out, 3) == projection_of(vecs).proj


# ---------------------------------------------------------------------------
# the lattice by identities against the kernel route on Fraction entries

def assert_lattice_matches_oracles(x, y):
    n = x.ambient_dim
    assert OracleMatrix.of(intersect(x, y).proj) == oracle_intersect(x, y)
    columns = OracleMatrix.of(x.proj).columns() + OracleMatrix.of(y.proj).columns()
    assert OracleMatrix.of(span_sum(x, y).proj) == oracle_projection_of(columns, ambient_dim=n)
    assert OracleMatrix.of(complement_within(x, y).proj) == oracle_intersect(x.perp(), y)


def test_lattice_matches_oracles_on_every_small_pair():
    """Every ordered pair of subspaces of C^2 spanned by at most two grid
    vectors, and of C^3 spanned by at most one (zero and full included)."""
    pairs = list(product(grid_spaces(2, 2), repeat=2)) + list(product(grid_spaces(3, 1), repeat=2))
    for x, y in pairs:
        assert_lattice_matches_oracles(x, y)
    assert len(pairs) == 11 ** 2 + 51 ** 2


def test_lattice_matches_oracles_on_seeded_pairs():
    """600 pairs in C^1 to C^6 with Gaussian-rational entries, 40% of them
    sharing a spanning vector, so that the meet is often nonzero."""
    rng = random.Random(26)

    def entry():
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                rng.choice([0, 0, rng.randint(-2, 2)]))

    def spanning(n):
        return [[entry() for _ in range(n)] for _ in range(rng.randint(0, n))]

    shared = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        xs, ys = spanning(n), spanning(n)
        if rng.random() < 0.4:
            v = [entry() for _ in range(n)]
            xs, ys, shared = xs + [v], ys + [v], shared + 1
        assert_lattice_matches_oracles(projection_of(xs, ambient_dim=n), projection_of(ys, ambient_dim=n))
    assert 200 < shared < 280
