import random
from fractions import Fraction

import pytest

from orthoapart import (
    Frame,
    Subspace,
    is_compatible,
    projection_of,
    refine_to_frame,
    span_sum,
    split_into_lines,
)
from orthoapart.errors import DimensionMismatch, IncompatibleFamily, OrthoapartError
from orthoapart.matrices import Matrix

from util import lattice_compatible, lattice_refine, random_frame


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
