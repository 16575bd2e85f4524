import random
from fractions import Fraction
from itertools import combinations

import pytest

from orthoapart import (
    ClassDescriptor,
    FiniteTransformation,
    Matrix,
    check_preservation,
    commutes,
    conjugate_operator,
    example_comm_swap,
    example_orth_swap,
    gram_obstruction,
    hs_inner,
    image_of,
    intersect,
    materialize,
    projection_of,
    signed_permutation_matrix,
    standard_apartment,
    witness_commuting_operator,
)
from orthoapart.apartments import enumerate_members
from orthoapart.errors import NoRoom, NotAnEigenline, OrthoapartError, ProjectionClass
from orthoapart.subspaces import Subspace

from util import (
    compositions,
    oracle_check_preservation,
    oracle_gram_obstruction,
    permutation_inducer,
    random_frame,
    random_labeling,
    transformation_operators,
)


PAIR = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))


def test_orth_swap_basic():
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    x = Subspace.coordinate(4, [0, 1])
    t = example_orth_swap(cls)
    swapped = [s for s in range(len(t.members)) if t.mapping[s] != s]
    assert len(swapped) == 2
    ops = transformation_operators(t)
    a, b = (ops[s] for s in swapped)
    assert a.eigenspaces != b.eigenspaces
    assert image_of(a) == image_of(b) == x
    assert check_preservation(t, "orthogonal")
    assert gram_obstruction(t) is not None


def test_orth_swap_trace_values():
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    x = Subspace.coordinate(4, [0, 1])
    t = example_orth_swap(cls)
    swapped = [s for s in range(len(t.members)) if t.mapping[s] != s]
    ops = transformation_operators(t)
    a, b = (ops[s] for s in swapped)
    # bystander with image span(e1, e3): pairs 1 with A, 2 with B
    c = next(
        op
        for op in ops
        if op.eigenspaces[0][1] == Subspace.coordinate(4, [0])
        and op.eigenspaces[1][1] == Subspace.coordinate(4, [2])
    )
    values = {hs_inner(a, c), hs_inner(b, c)}
    assert values == {Fraction(1), Fraction(2)}


def test_orth_swap_rejects_projection_class():
    cls = ClassDescriptor(4, (Fraction(1),), (2,))
    with pytest.raises(ProjectionClass):
        example_orth_swap(cls)


def test_comm_swap_basic():
    t = example_comm_swap(PAIR)
    swapped = [s for s in range(len(t.members)) if t.mapping[s] != s]
    ops = transformation_operators(t)
    a, b = (ops[s] for s in swapped)
    assert materialize(a) == Matrix.diagonal([1, 2, 0, 0])
    assert materialize(b) == Matrix.diagonal([2, 1, 0, 0])
    assert commutes(a, b)
    assert check_preservation(t, "commute")
    witness = gram_obstruction(t)
    assert witness is not None


def test_comm_swap_witness_values():
    t = example_comm_swap(PAIR)
    # bystander C = 1*P_e1 + 2*P_e3 pairs differently with A and B
    mats = [materialize(op) for op in transformation_operators(t)]
    c_idx = mats.index(Matrix.diagonal([1, 0, 2, 0]))
    swapped = [s for s in range(len(t.members)) if t.mapping[s] != s]
    a_idx, b_idx = swapped
    tr = lambda i, j: (mats[i] @ mats[j]).trace().re
    assert {tr(a_idx, c_idx), tr(b_idx, c_idx)} == {Fraction(1), Fraction(2)}


def test_comm_swap_validation():
    with pytest.raises(OrthoapartError, match="two eigenvalues of equal dimension"):
        example_comm_swap(ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 2)))
    with pytest.raises(OrthoapartError, match="two eigenvalues of equal dimension"):
        example_comm_swap(ClassDescriptor(4, (Fraction(1), Fraction(2), Fraction(3)), (1, 1, 1)))


def test_swap_is_involution():
    t = example_comm_swap(PAIR)
    twice = [t.mapping[t.mapping[s]] for s in range(len(t.members))]
    assert twice == list(range(len(t.members)))


def test_identity_preserves_everything():
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    members = list(enumerate_members(cls))[:6]
    t = FiniteTransformation(cls, members, range(len(members)))
    assert check_preservation(t, "commute")
    assert check_preservation(t, "orthogonal")
    assert gram_obstruction(t) is None


def test_gram_obstruction_silent_on_conjugations():
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    ap = standard_apartment(cls)
    members = list(enumerate_members(cls))
    domain = [m.to_operator(ap) for m in members]
    u = signed_permutation_matrix(4, [1, 3, 0, 2], [1, -1, -1, 1])
    conjugated = [materialize(conjugate_operator(op, u)) for op in domain]
    mats = [materialize(op) for op in domain]
    mapping = [mats.index(c) for c in conjugated]
    t = FiniteTransformation(cls, members, mapping)
    assert gram_obstruction(t) is None
    assert check_preservation(t, "commute")
    assert check_preservation(t, "orthogonal")


def test_permutation_inducer_positive_and_negative():
    t = example_comm_swap(PAIR)
    assert permutation_inducer(t) is None

    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    ap = standard_apartment(cls)
    members = list(enumerate_members(cls))
    domain = [m.to_operator(ap) for m in members]
    u = signed_permutation_matrix(4, [1, 0, 2, 3])
    mats = [materialize(op) for op in domain]
    conjugated = [materialize(conjugate_operator(op, u)) for op in domain]
    mapping = tuple(mats.index(c) for c in conjugated)
    aligned = FiniteTransformation(cls, members, mapping)
    found = permutation_inducer(aligned)
    assert found is not None
    uh = found.adjoint()
    for s in range(len(domain)):
        assert found @ mats[s] @ uh == mats[mapping[s]]


ALPHAS = (Fraction(-3, 2), Fraction(7), Fraction(1, 2), Fraction(-7, 3), Fraction(5))


def _certificate_cases():
    """Both swaps wherever they exist on every class with n <= 4 and two or
    more eigenvalues, the identity and a signed coordinate rotation on those
    of at most 12 members, and every transposition of two members of
    (4, (1, 1)), on all members and beside member 0 only.  The matrix
    oracle walks every member pair of a transformation that preserves the
    relation: at n = 5 that takes minutes over all classes, so n stops
    at 4."""
    for n in range(2, 5):
        for k in range(2, n + 1):
            for dims in compositions(k):
                if len(dims) < 2:
                    continue
                cls = ClassDescriptor(n, ALPHAS[: len(dims)], dims)
                swap = example_orth_swap(cls)
                members = swap.members
                yield swap
                if len(members) <= 12:
                    yield FiniteTransformation(cls, members, range(len(members)))
                    # U e_i = -e_(i+1) moves the label of line i to line i+1
                    rotated = [m.assignment[-1:] + m.assignment[:-1] for m in members]
                    keys = [m.assignment for m in members]
                    yield FiniteTransformation(cls, members, [keys.index(r) for r in rotated])
                if len(dims) == 2 and dims[0] == dims[1]:
                    yield example_comm_swap(cls)
    cls = ClassDescriptor(4, ALPHAS[:2], (1, 1))
    members = list(enumerate_members(cls))
    for a, b in combinations(range(len(members)), 2):
        mapping = list(range(len(members)))
        mapping[a], mapping[b] = b, a
        yield FiniteTransformation(cls, members, mapping)
        # beside member 0 alone, a relation is preserved iff member 0
        # relates to a and to b alike
        if a > 0:
            yield FiniteTransformation(cls, (members[0], members[a], members[b]), (0, 2, 1))


def test_label_certificate_matches_matrix_oracle():
    preserved, witnesses = set(), []
    for t in _certificate_cases():
        for relation in ("commute", "orthogonal"):
            got = check_preservation(t, relation)
            assert got == oracle_check_preservation(t, relation), (t.cls, t.mapping, relation)
            preserved.add(got)
        witness = gram_obstruction(t)
        assert witness == oracle_gram_obstruction(t), (t.cls, t.mapping)
        witnesses.append(witness)
    assert preserved == {True, False}
    assert None in witnesses and any(w is not None for w in witnesses)


def test_witness_projection_class():
    # A = P_{span(e1..ek)}, Y = span(e1), n = 2k-1
    k = 3
    n = 2 * k - 1
    cls = ClassDescriptor(n, (Fraction(1),), (k,))
    from orthoapart import SpectralOperator

    a = SpectralOperator(cls, ((Fraction(1), Subspace.coordinate(n, range(k))),))
    y = Subspace.coordinate(n, [0])
    b = witness_commuting_operator(a, y)
    assert image_of(b) == Subspace.coordinate(n, [0, 3, 4])
    assert commutes(a, b)
    assert intersect(image_of(a), image_of(b)) == y


def test_witness_mixed_class():
    cls = ClassDescriptor(5, (Fraction(1), Fraction(2)), (1, 2))
    from orthoapart import SpectralOperator

    a = SpectralOperator(
        cls,
        (
            (Fraction(1), Subspace.coordinate(5, [0])),
            (Fraction(2), Subspace.coordinate(5, [1, 2])),
        ),
    )
    y = Subspace.coordinate(5, [0])
    b = witness_commuting_operator(a, y)
    assert b.cls == cls
    assert commutes(a, b)
    ma, mb = materialize(a), materialize(b)
    assert ma @ mb == mb @ ma
    assert intersect(image_of(a), image_of(b)) == y
    # the smallest-dimension slot receives y
    assert b.eigenspaces[0][1].contains(y)


def test_witness_errors():
    cls = ClassDescriptor(5, (Fraction(1), Fraction(2)), (1, 2))
    from orthoapart import SpectralOperator

    a = SpectralOperator(
        cls,
        (
            (Fraction(1), Subspace.coordinate(5, [0])),
            (Fraction(2), Subspace.coordinate(5, [1, 2])),
        ),
    )
    with pytest.raises(NotAnEigenline):
        witness_commuting_operator(a, projection_of([[1, 1, 0, 0, 0]], ambient_dim=5))
    with pytest.raises(NotAnEigenline):
        witness_commuting_operator(a, Subspace.coordinate(5, [3]))
    tight = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 2))
    b = SpectralOperator(
        tight,
        (
            (Fraction(1), Subspace.coordinate(4, [0])),
            (Fraction(2), Subspace.coordinate(4, [1, 2])),
        ),
    )
    with pytest.raises(NoRoom):
        witness_commuting_operator(b, Subspace.coordinate(4, [0]))


def test_witness_on_random_operators():
    rng = random.Random(41)
    classes = [
        ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1)),
        ClassDescriptor(6, (Fraction(1), Fraction(2)), (1, 2)),
        ClassDescriptor(5, (Fraction(3),), (2,)),
    ]
    for _ in range(10):
        cls = rng.choice(classes)
        from orthoapart import Apartment

        ap = Apartment(random_frame(cls.n, rng, rotations=2), cls)
        a = random_labeling(cls, rng).to_operator(ap)
        for slot, d in enumerate(cls.dims):
            if d != 1:
                continue
            y = a.eigenspaces[slot][1]
            b = witness_commuting_operator(a, y)
            assert commutes(a, b)
            assert intersect(image_of(a), image_of(b)) == y
