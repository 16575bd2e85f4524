import random
from fractions import Fraction
from itertools import product

import pytest

from orthoapart.errors import DimensionMismatch, SingularMatrix
from orthoapart.matrices import Matrix, vector
from orthoapart.scalars import GaussianRational, I, as_scalar
from orthoapart.subspaces import projection_of

from util import SMALL, OracleMatrix, apply, inner, oracle_projection_of, product_trace


def rand_matrix(rows, cols, rng, complex_entries=True):
    def entry():
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if complex_entries else 0
        return GaussianRational(re, im)

    return Matrix([[entry() for _ in range(cols)] for _ in range(rows)])


# the adjoint is the oracle's: the package reads self-adjointness off the
# integers (is_hermitian, product_is_hermitian) and builds no adjoint

def test_adjoint_is_involution():
    rng = random.Random(7)
    for _ in range(20):
        m = OracleMatrix.of(rand_matrix(rng.randint(1, 5), rng.randint(1, 5), rng))
        assert m.adjoint().adjoint() == m


def test_adjoint_reverses_products():
    rng = random.Random(8)
    a = rand_matrix(3, 4, rng)
    b = rand_matrix(4, 2, rng)
    oa, ob = OracleMatrix.of(a), OracleMatrix.of(b)
    assert OracleMatrix.of(a @ b).adjoint() == ob.adjoint() @ oa.adjoint()


# rank, kernel and column space are the oracle's: the package has no
# elimination beyond rref and inverse

def test_rank_and_kernel():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    m, o = Matrix(rows), OracleMatrix(rows)
    assert o.rank() == len(m.rref()[1]) == 2
    for v in o.kernel_basis():
        assert not any(apply(m, v))
    assert len(o.kernel_basis()) == 3 - o.rank()


def test_kernel_of_full_rank_is_trivial():
    assert OracleMatrix([[1, 1], [0, 1]]).kernel_basis() == []


def test_column_space_basis_spans():
    o = OracleMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = o.column_space_basis()
    assert len(basis) == 2
    stacked = Matrix(list(zip(*basis, o.column(2))))
    assert len(stacked.rref()[1]) == 2  # third column dependent on the basis


def test_inverse():
    rng = random.Random(9)
    for _ in range(10):
        m = rand_matrix(3, 3, rng)
        if len(m.rref()[1]) < 3:
            continue
        assert m @ m.inverse() == Matrix.identity(3)
    with pytest.raises(SingularMatrix):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_rank_with_complex_entries():
    m = Matrix([[GaussianRational(Fraction(1)), I], [I, GaussianRational(Fraction(1))]])
    assert len(m.rref()[1]) == 2
    # second row is -i times the first
    singular = Matrix([[GaussianRational(Fraction(1)), I], [I * -1, GaussianRational(Fraction(1))]])
    assert len(singular.rref()[1]) == 1


def test_repr_reads_entries():
    # a literal value: no driver of the package reaches Matrix.__repr__
    assert repr(Matrix([[Fraction(1, 2), I], ["-1/3+2i", 0]])) == "Matrix[2x2](1/2 1i; -1/3+2i 0)"
    assert repr(Matrix.zeros(2, 0)) == "Matrix[2x0](; )"


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1]]) + Matrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2]]).integer_trace()


def test_hermitian_inner_product():
    u = vector([I, 1])
    v = vector([1, I * -1])
    assert inner(u, u) == 2
    assert inner(u, v) == GaussianRational(Fraction(0), Fraction(-2))
    uv = inner(u, v)
    assert inner(v, u) == GaussianRational(uv.re, -uv.im)


def test_trace_linearity():
    rng = random.Random(10)
    a = rand_matrix(4, 4, rng)
    b = rand_matrix(4, 4, rng)
    trace = lambda m: OracleMatrix.of(m).trace()  # noqa: E731
    assert trace(a + b) == trace(a) + trace(b)
    assert trace(a @ b) == product_trace(a, b) == product_trace(b, a)


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction-entry oracle

def same(m: Matrix, o: OracleMatrix) -> bool:
    return m.shape == o.shape and OracleMatrix.of(m) == o


def assert_kernel_matches_oracle(rows, other_rows):
    m, o = Matrix(rows), OracleMatrix(rows)
    b, ob = Matrix(other_rows), OracleMatrix(other_rows)
    assert same(m, o) and same(-m, -o)
    for c in (Fraction(-3, 2), 2 * I - 1):
        assert same(m.scale(c), o.scale(c))
    if m.rows == b.rows and m.cols == b.cols:
        assert same(m + b, o + ob) and same(m - b, o - ob)
    if m.cols == b.rows:
        assert same(m @ b, o @ ob)
    if m.rows == m.cols:
        re, im = m.integer_trace()
        assert GaussianRational(Fraction(re, m.den), Fraction(im, m.den)) == o.trace()
        try:
            expected = o.inverse()
        except SingularMatrix:
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            assert same(m.inverse(), expected)
    (r, pivots), (orr, opivots) = m.rref(), o.rref()
    assert pivots == opivots and same(r, orr)
    n = m.rows
    assert same(projection_of(o.columns(), ambient_dim=n).proj,
                oracle_projection_of(o.columns(), ambient_dim=n))


def test_kernel_matches_oracle_on_every_small_2x2():
    entries = [as_scalar(x) for x in SMALL]
    grid = [[[a, b], [c, d]] for a, b, c, d in product(entries, repeat=4)]
    for k, rows in enumerate(grid):
        assert_kernel_matches_oracle(rows, grid[(7 * k + 3) % len(grid)])


def random_rows(rows, cols, rank, rng, complex_entries):
    """A rows x cols matrix of rank at most `rank`, as a product of random
    rows x rank and rank x cols factors."""
    if not rank:
        return OracleMatrix.zeros(rows, cols).entries()
    left, right = rand_matrix(rows, rank, rng, complex_entries), rand_matrix(rank, cols, rng, complex_entries)
    return OracleMatrix.of(left @ right).entries()


@pytest.mark.parametrize("complex_entries", [False, True])
def test_kernel_matches_oracle_on_random_matrices(complex_entries):
    rng = random.Random(11 + complex_entries)
    for _ in range(60):
        rows, cols, inner_dim = (rng.randint(1, 6) for _ in range(3))
        rank = rng.randint(0, min(rows, cols))
        a = random_rows(rows, cols, rank, rng, complex_entries)
        if rng.random() < 0.5:
            b = random_rows(cols, inner_dim, rng.randint(0, min(cols, inner_dim)), rng, complex_entries)
        else:
            b = random_rows(rows, cols, rng.randint(0, min(rows, cols)), rng, complex_entries)
        assert_kernel_matches_oracle(a, b)
        if rows == cols:
            full = OracleMatrix.of(rand_matrix(rows, rows, rng, complex_entries)).entries()
            assert_kernel_matches_oracle(full, a)


def test_equal_values_are_equal_matrices_whatever_their_input_form():
    forms = [
        Matrix([[Fraction(2, 4), 0], [I * Fraction(3, 6), -1]]),
        Matrix([["1/2", "0"], ["1/2i", "-1"]]),
        Matrix([[GaussianRational(Fraction(1, 2)), 0], [GaussianRational(0, Fraction(1, 2)), -1]]),
        Matrix([["1", "0"], ["1i", "-2"]]).scale(Fraction(1, 2)),
        Matrix([["1/4", 0], ["1/4i", "-1/2"]]) + Matrix([["1/4", 0], ["1/4i", "-1/2"]]),
    ]
    for m in forms:
        assert m == forms[0] and hash(m) == hash(forms[0])
    assert Matrix([[Fraction(2, 4)]]) == Matrix([["1/2"]])
    assert hash(Matrix([[Fraction(2, 4)]])) == hash(Matrix([["1/2"]]))
    # a real matrix reached through complex arithmetic is stored as real
    z = Matrix([[I]]) @ Matrix([[I]])
    assert z == Matrix([[-1]]) and hash(z) == hash(Matrix([[-1]]))
    assert Matrix([[1, 2]]) - Matrix([[1, 2]]) == Matrix.zeros(1, 2)
