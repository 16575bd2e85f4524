import random
from fractions import Fraction
from itertools import product

import pytest

from orthoapart import (
    Frame,
    Subspace,
    is_compatible,
    orthogonalize,
    projection_of,
    refine_to_frame,
    span_sum,
    split_into_lines,
)
from orthoapart.errors import DimensionMismatch, IncompatibleFamily, OrthoapartError
from orthoapart.matrices import Matrix, inner
from orthoapart.scalars import I

from util import (
    SMALL,
    lattice_compatible,
    lattice_refine,
    oracle_dim,
    oracle_is_compatible,
    oracle_orthogonal_columns,
    oracle_split_into_lines,
    pivot_basis,
    random_frame,
)


def e(n, i):
    return [1 if j == i else 0 for j in range(n)]


def lines_sum(frame, indices):
    """The sum of the chosen frame lines, as one subspace."""
    n = frame.ambient_dim
    proj = Matrix.zeros(n, n)
    for i in indices:
        proj = proj + frame.lines[i].proj
    return Subspace(proj)


def test_compatible_when_orthogonal():
    x = projection_of([e(3, 0)])
    y = projection_of([e(3, 1)])
    assert is_compatible(x, y)


def test_compatible_when_nested():
    x = projection_of([e(3, 0)])
    y = projection_of([e(3, 0), e(3, 1)])
    assert is_compatible(x, y)


def test_incompatible_slanted_line():
    x = projection_of([e(2, 0)])
    y = projection_of([[1, 1]])
    assert not is_compatible(x, y)


def test_compatibility_equals_projection_commutation():
    """Commuting projections agree with the lattice form of compatibility,
    on random spans and on sums of lines of one random frame."""
    rng = random.Random(21)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 5)
        frame = random_frame(n, rng)

        def rand_space():
            if rng.random() < 0.6:
                return lines_sum(frame, [i for i in range(n) if rng.random() < 0.5])
            return projection_of(
                [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, n))],
                ambient_dim=n,
            )

        x, y = rand_space(), rand_space()
        got = is_compatible(x, y)
        assert got == lattice_compatible(x, y)
        outcomes.add(got)
    assert outcomes == {True, False}


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_integer_compatibility_and_dim_match_matrix_forms():
    """is_compatible on the product's integers against z == z.adjoint() on
    the normalized product, for every pair of the subspaces of C^2 spanned by
    at most two vectors over SMALL and of the lines of C^3 over SMALL; dim
    from the integer diagonal against the GaussianRational trace, corrupt
    traces (not an integer, not real) included."""
    pairs2 = [[u, v] for u in product(SMALL, repeat=2) for v in product(SMALL, repeat=2)]
    spaces2 = {projection_of(s) for s in pairs2} | {Subspace.zero(2)}
    lines3 = {projection_of([v], ambient_dim=3) for v in product(SMALL, repeat=3)}
    outcomes = set()
    for spaces in (spaces2, lines3):
        for x in spaces:
            assert x.dim == oracle_dim(x)
            for y in spaces:
                got = is_compatible(x, y)
                assert got == oracle_is_compatible(x, y)
                outcomes.add((x.dim, y.dim, got))
    assert {(1, 1, True), (1, 1, False), (0, 2, True), (1, 2, True)} <= outcomes
    assert len(spaces2) > 20 and len(lines3) > 100

    # the identity holds for any product, not only of projections
    rng = random.Random(20)
    hermitian = 0
    for _ in range(2000):
        a, b = (Matrix([[rng.choice(SMALL) for _ in range(2)] for _ in range(2)]) for _ in range(2))
        b = b.adjoint() if rng.random() < 0.5 else a.adjoint()
        z = a @ b
        assert a.product_is_hermitian(b) == (z == z.adjoint())
        hermitian += z == z.adjoint()
    assert hermitian > 500

    half, imaginary = Fraction(1, 2), I
    for m in ([[half, 0], [0, 0]], [[imaginary, 0], [0, 0]], [[imaginary, 0], [0, -imaginary]],
              [[half, 1], [0, half]], [[3, 0], [0, -1]]):
        x = Subspace(Matrix(m))
        assert _outcome(lambda: x.dim) == _outcome(oracle_dim, x)
    for m in ([[half, 0], [0, 0]], [[imaginary, 0], [0, 0]]):
        with pytest.raises(ValueError, match="corrupt subspace"):
            Subspace(Matrix(m)).dim


def test_frame_validation():
    with pytest.raises(OrthoapartError):
        Frame(2, (projection_of([e(2, 0)]),))  # wrong line count
    with pytest.raises(OrthoapartError):
        Frame(2, (projection_of([e(2, 0)]), projection_of([[1, 1]])))  # not orthogonal
    f = Frame.standard(3)
    assert [line.dim for line in f.lines] == [1, 1, 1]


def test_refine_empty_family_gives_standard_frame():
    assert refine_to_frame([], ambient_dim=3) == Frame.standard(3)


def test_refine_overlapping_planes():
    family = [
        projection_of([e(4, 0), e(4, 1)]),
        projection_of([e(4, 1), e(4, 2)]),
    ]
    frame = refine_to_frame(family)
    lines = set(frame.lines)
    for i in range(3):
        assert projection_of([e(4, i)]) in lines
    # the remaining line lies in span(e4)
    rest = lines - {projection_of([e(4, i)]) for i in range(3)}
    (extra,) = rest
    assert projection_of([e(4, 3)]).contains(extra)


def test_refine_slanted_pair():
    x = projection_of([[1, 1]])
    frame = refine_to_frame([x, x.perp()])
    assert set(frame.lines) == {projection_of([[1, 1]]), projection_of([[1, -1]])}


def test_refine_reconstructs_inputs():
    rng = random.Random(22)
    for _ in range(10):
        n = rng.randint(2, 6)
        gen = random_frame(n, rng)
        family = [
            lines_sum(gen, [i for i in range(n) if rng.random() < 0.5])
            for _ in range(rng.randint(1, 3))
        ]
        frame = refine_to_frame(family)
        for x in family:
            rebuilt = Subspace.zero(n)
            for line in frame.lines:
                if x.contains(line):
                    rebuilt = span_sum(rebuilt, line)
            assert rebuilt == x


def test_refine_matches_lattice_oracle():
    """The one-pass product split gives the same lines, in the same order,
    as the restart loop over general intersections, zero, full and
    repeated members included."""
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 6)
        gen = random_frame(n, rng)
        family = [
            lines_sum(gen, [i for i in range(n) if rng.random() < 0.5])
            for _ in range(rng.randint(1, 4))
        ]
        family += [Subspace.zero(n), Subspace.full(n), rng.choice(family)]
        rng.shuffle(family)
        assert refine_to_frame(family).lines == lattice_refine(family).lines


def test_mixed_ambient_dimensions_are_rejected():
    x, y = projection_of([e(3, 0)]), projection_of([e(4, 0)])
    with pytest.raises(DimensionMismatch):
        is_compatible(x, y)
    with pytest.raises(DimensionMismatch):
        refine_to_frame([x, y])


def test_refine_rejects_incompatible():
    x = projection_of([e(2, 0)])
    y = projection_of([[1, 1]])
    with pytest.raises(IncompatibleFamily) as exc:
        refine_to_frame([x, y])
    assert exc.value.pair == (0, 1)


def test_refine_ignores_zero_and_duplicates():
    x = projection_of([e(3, 0)])
    frame = refine_to_frame([Subspace.zero(3), x, x])
    assert projection_of([e(3, 0)]) in set(frame.lines)


def test_split_into_lines():
    block = projection_of([[1, 1, 0], [0, 0, 1]])
    lines = split_into_lines(block)
    assert len(lines) == 2
    assert all(line.dim == 1 for line in lines)
    assert lines[0].is_orthogonal_to(lines[1])
    assert span_sum(lines[0], lines[1]) == block


def test_split_into_lines_matches_rational_gram_schmidt():
    # blocks of random rotated frames, complex blocks, and the complement of
    # the all-ones line, whose 11 Gram-Schmidt steps would grow the entries
    # without bound if each step were not made primitive again
    rng = random.Random(12)
    blocks = [projection_of([[1] * 12]).perp(),
              projection_of([[1, "1i", 0, 2], [0, "1-1i", 3, "1/2i"], [1, 0, 0, "-1i"]])]
    for _ in range(20):
        n = rng.randint(2, 7)
        frame = random_frame(n, rng)
        blocks.append(lines_sum(frame, rng.sample(range(n), rng.randint(1, n))))
    for block in blocks:
        lines = split_into_lines(block)
        assert lines == oracle_split_into_lines(block)
        assert Frame(block.ambient_dim, tuple(lines + split_into_lines(block.perp())))
    # the primitive vectors here are (0, ..., 0, k, -1, ..., -1)
    ones = orthogonalize(pivot_basis(blocks[0]))
    assert max(abs(x.re) for u in ones for x in u) == 11
    assert all(x.re.denominator == 1 for u in ones for x in u)


def test_split_into_lines_matches_both_gram_schmidt_oracles():
    """Every block spanned by at most two vectors of C^3 with entries in
    {0, 1, I, 1 - I}, and seeded blocks spanned by up to four vectors with
    entries in SMALL: the lines equal the Gaussian-rational Gram-Schmidt's
    and the Matrix-product Gram-Schmidt's on the pivot columns."""
    vecs = [list(v) for v in product([0, 1, I, 1 - I], repeat=3)]
    rng = random.Random(23)
    spans = [[u, v] for u in vecs for v in vecs]
    spans += [[[rng.choice(SMALL) for _ in range(3)] for _ in range(rng.randint(1, 4))]
              for _ in range(100)]
    blocks = {projection_of(s, ambient_dim=3) for s in spans}
    for block in blocks:
        lines = split_into_lines(block)
        assert lines == oracle_split_into_lines(block)
        p = block.proj
        us = oracle_orthogonal_columns(p.select_columns(p.rref()[1]))
        assert lines == [projection_of(u.columns(), ambient_dim=3) for u in us]
    assert len(blocks) > 100


def test_frame_checks_complex_lines_pairwise():
    """Two lines of C^2 make a frame iff their spanning vectors have zero
    Hermitian inner product; (1, 0) and (i, 1) differ only in the imaginary
    part, u*v = i."""
    vecs = [v for v in product(SMALL, repeat=2) if any(v)]
    for u, v in product(vecs, repeat=2):
        lines = (projection_of([u]), projection_of([v]))
        if inner(u, v).is_zero:
            assert Frame(2, lines).lines == lines
        else:
            with pytest.raises(OrthoapartError, match="not orthogonal"):
                Frame(2, lines)
    with pytest.raises(OrthoapartError, match="not orthogonal"):
        Frame(2, (projection_of([[1, 0]]), projection_of([[I, 1]])))
    assert Frame(2, (projection_of([[1, I]]), projection_of([[I, 1]])))
