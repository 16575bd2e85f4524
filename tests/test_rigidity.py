import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from orthoapart import (
    ClassDescriptor,
    FiniteTransformation,
    Matrix,
    check_preservation,
    commutes,
    example_comm_swap,
    example_orth_swap,
    gram_obstruction,
    image_of,
    intersect,
    materialize,
    projection_of,
    standard_apartment,
    witness_commuting_operator,
)
from orthoapart.apartments import enumerate_members
from orthoapart.errors import NoRoom, NotAnEigenline, OrthoapartError, ProjectionClass
from orthoapart.subspaces import Subspace

from util import (
    OracleMatrix,
    as_permutation,
    compositions,
    diagonal,
    conjugate_operator,
    label_check_preservation,
    label_gram_obstruction,
    member_permutation,
    oracle_block_walk_obstruction,
    oracle_check_preservation,
    oracle_gram_obstruction,
    oracle_witness_commuting_operator,
    permutation_inducer,
    product_trace,
    random_frame,
    random_labeling,
    signed_permutation_matrix,
    transformation_operators,
)


PAIR = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))


def test_orth_swap_basic():
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    x = Subspace.coordinate(4, [0, 1])
    t = example_orth_swap(cls)
    assert (t.a, t.b) == ((0, 1), (1, 0))
    p = as_permutation(t)
    swapped = [s for s in range(len(p.members)) if p.mapping[s] != s]
    assert len(swapped) == 2
    ops = transformation_operators(p)
    a, b = (ops[s] for s in swapped)
    assert a.eigenspaces != b.eigenspaces
    assert image_of(a) == image_of(b) == x
    assert check_preservation(t, "orthogonal")
    assert gram_obstruction(t) is not None


def test_orth_swap_trace_values():
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    p = as_permutation(example_orth_swap(cls))
    swapped = [s for s in range(len(p.members)) if p.mapping[s] != s]
    ops = transformation_operators(p)
    a, b = (ops[s] for s in swapped)
    # bystander with image span(e1, e3): pairs 1 with A, 2 with B
    c = next(
        op
        for op in ops
        if op.eigenspaces[0][1] == Subspace.coordinate(4, [0])
        and op.eigenspaces[1][1] == Subspace.coordinate(4, [2])
    )
    ma, mb, mc = (materialize(op) for op in (a, b, c))
    values = {product_trace(ma, mc).re, product_trace(mb, mc).re}
    assert values == {Fraction(1), Fraction(2)}


def test_orth_swap_rejects_projection_class():
    cls = ClassDescriptor(4, (Fraction(1),), (2,))
    with pytest.raises(ProjectionClass):
        example_orth_swap(cls)


def test_comm_swap_basic():
    t = example_comm_swap(PAIR)
    p = as_permutation(t)
    swapped = [s for s in range(len(p.members)) if p.mapping[s] != s]
    ops = transformation_operators(p)
    a, b = (ops[s] for s in swapped)
    assert materialize(a) == diagonal([1, 2, 0, 0])
    assert materialize(b) == diagonal([2, 1, 0, 0])
    assert commutes(a, b)
    assert check_preservation(t, "commute")
    witness = gram_obstruction(t)
    assert witness is not None


def test_comm_swap_witness_values():
    p = as_permutation(example_comm_swap(PAIR))
    # bystander C = 1*P_e1 + 2*P_e3 pairs differently with A and B
    mats = [materialize(op) for op in transformation_operators(p)]
    c_idx = mats.index(diagonal([1, 0, 2, 0]))
    swapped = [s for s in range(len(p.members)) if p.mapping[s] != s]
    a_idx, b_idx = swapped
    tr = lambda i, j: product_trace(mats[i], mats[j]).re
    assert {tr(a_idx, c_idx), tr(b_idx, c_idx)} == {Fraction(1), Fraction(2)}


def test_comm_swap_validation():
    with pytest.raises(OrthoapartError, match="two eigenvalues of equal dimension"):
        example_comm_swap(ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 2)))
    with pytest.raises(OrthoapartError, match="two eigenvalues of equal dimension"):
        example_comm_swap(ClassDescriptor(4, (Fraction(1), Fraction(2), Fraction(3)), (1, 1, 1)))


def test_transformation_validation():
    cls = ClassDescriptor(5, (Fraction(1), Fraction(2)), (1, 2))
    FiniteTransformation(cls, (0, 1, 1), (1, 0, 1))
    for a, b in (((1, 0, 1), (0, 1, 1)), ((0, 1), (1, 0)), ((0, 1, 1, None), (1, 0, 1, None))):
        with pytest.raises(OrthoapartError, match="a must label"):
            FiniteTransformation(cls, a, b)
    for b in ((1, 0), (0, 0, 1), (1, 1, 0, None), (1, None, 1), (1, 2, 0)):
        with pytest.raises(OrthoapartError, match="b must label"):
            FiniteTransformation(cls, (0, 1, 1), b)
    with pytest.raises(KeyError):
        check_preservation(example_orth_swap(cls), "adjacent")


def test_swap_is_involution():
    p = as_permutation(example_comm_swap(PAIR))
    twice = [p.mapping[p.mapping[s]] for s in range(len(p.members))]
    assert twice == list(range(len(p.members)))


def test_identity_preserves_everything():
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    members = list(enumerate_members(cls))[:6]
    p = member_permutation(cls, members, range(len(members)))
    assert label_check_preservation(p, "commute")
    assert label_check_preservation(p, "orthogonal")
    assert label_gram_obstruction(p) is None
    t = FiniteTransformation(cls, (0, 1), (0, 1))
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
    p = member_permutation(cls, members, mapping)
    assert label_gram_obstruction(p) is None
    assert label_check_preservation(p, "commute")
    assert label_check_preservation(p, "orthogonal")


def test_permutation_inducer_positive_and_negative():
    assert permutation_inducer(as_permutation(example_comm_swap(PAIR))) is None

    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    ap = standard_apartment(cls)
    members = list(enumerate_members(cls))
    domain = [m.to_operator(ap) for m in members]
    u = signed_permutation_matrix(4, [1, 0, 2, 3])
    mats = [materialize(op) for op in domain]
    conjugated = [materialize(conjugate_operator(op, u)) for op in domain]
    mapping = tuple(mats.index(c) for c in conjugated)
    aligned = member_permutation(cls, members, mapping)
    found = permutation_inducer(aligned)
    assert found is not None
    uh = Matrix(OracleMatrix.of(found).adjoint().entries())
    for s in range(len(domain)):
        assert found @ mats[s] @ uh == mats[mapping[s]]


ALPHAS = (Fraction(-3, 2), Fraction(7), Fraction(1, 2), Fraction(-7, 3), Fraction(5))


def _certificate_cases():
    """Both swaps wherever they exist on every class with n <= 4 and two or
    more eigenvalues, the identity and a signed coordinate rotation on those
    of at most 12 members, and every transposition of two members of
    (4, (1, 1)), on all members and beside member 0 only, each as a
    permutation of members.  The matrix oracle walks every member pair of a
    permutation that preserves the relation: at n = 5 that takes minutes
    over all classes, so n stops at 4."""
    for n in range(2, 5):
        for k in range(2, n + 1):
            for dims in compositions(k):
                if len(dims) < 2:
                    continue
                cls = ClassDescriptor(n, ALPHAS[: len(dims)], dims)
                swap = as_permutation(example_orth_swap(cls))
                members = swap.members
                yield swap
                if len(members) <= 12:
                    yield member_permutation(cls, members, range(len(members)))
                    # U e_i = -e_(i+1) moves the label of line i to line i+1
                    rotated = [m.assignment[-1:] + m.assignment[:-1] for m in members]
                    keys = [m.assignment for m in members]
                    yield member_permutation(cls, members, [keys.index(r) for r in rotated])
                if len(dims) == 2 and dims[0] == dims[1]:
                    yield as_permutation(example_comm_swap(cls))
    cls = ClassDescriptor(4, ALPHAS[:2], (1, 1))
    members = list(enumerate_members(cls))
    for a, b in combinations(range(len(members)), 2):
        mapping = list(range(len(members)))
        mapping[a], mapping[b] = b, a
        yield member_permutation(cls, members, mapping)
        # beside member 0 alone, a relation is preserved iff member 0
        # relates to a and to b alike
        if a > 0:
            yield member_permutation(cls, (members[0], members[a], members[b]), (0, 2, 1))


def test_label_certificate_matches_matrix_oracle():
    """The label oracle, a general permutation decided over all member
    pairs, against the same walk on materialized operators."""
    preserved, witnesses = set(), []
    for p in _certificate_cases():
        for relation in ("commute", "orthogonal"):
            got = label_check_preservation(p, relation)
            assert got == oracle_check_preservation(p, relation), (p.cls, p.mapping, relation)
            preserved.add(got)
        witness = label_gram_obstruction(p)
        assert witness == oracle_gram_obstruction(p), (p.cls, p.mapping)
        witnesses.append(witness)
    assert preserved == {True, False}
    assert None in witnesses and any(w is not None for w in witnesses)


def test_certificate_matches_label_oracle_on_same_image_transpositions():
    """Every transposition of member 0 with a member of the same image, on
    every class with n <= 5 and two or more eigenvalues, against the label
    oracle's walk over all member pairs.  n = 6 (4,400 transpositions) takes
    minutes, so n stops at 5."""
    cases, witnesses = 0, set()
    for n in range(2, 6):
        for k in range(2, n + 1):
            for dims in compositions(k):
                if len(dims) < 2:
                    continue
                cls = ClassDescriptor(n, ALPHAS[: len(dims)], dims)
                a = tuple(t for t, d in enumerate(dims) for _ in range(d))
                for b in sorted(set(permutations(a))):
                    t = FiniteTransformation(cls, a, b)
                    p = as_permutation(t)
                    for relation in ("commute", "orthogonal"):
                        assert check_preservation(t, relation) == label_check_preservation(p, relation)
                    witness = gram_obstruction(t)
                    assert witness == label_gram_obstruction(p), (cls, b)
                    witnesses.add(None if witness is None else witness.t)
                    cases += 1
    assert cases == 732 and None in witnesses and len(witnesses) > 2


def _witness_or_refusal(obstruction, t: FiniteTransformation):
    try:
        return obstruction(t)
    except OrthoapartError as e:
        return str(e)


def test_certificate_matches_block_walk_oracle():
    """gram_obstruction, the member enumeration cut at k lines, against the
    hand-written block walk it replaced: the same witness or the same
    refusal text.  Every composition with k <= 7 and two or more parts,
    every distinct b (a seeded sample of 40 when there are more),
    eigenvalues 1..m and alternating in sign, and n in {k, k + 1, 2k, 4k,
    10^9}."""
    rng = random.Random(32)
    cases, refused, silent = 0, 0, 0
    for k in range(2, 8):
        for dims in compositions(k):
            if len(dims) < 2:
                continue
            a = tuple(t for t, d in enumerate(dims) for _ in range(d))
            bs = sorted(set(permutations(a)))
            for b in bs if len(bs) <= 40 else rng.sample(bs, 40):
                for alphas in ([s + 1 for s in range(len(dims))], [(-1) ** s * (s + 1) for s in range(len(dims))]):
                    for n in (k, k + 1, 2 * k, 4 * k, 10 ** 9):
                        t = FiniteTransformation(ClassDescriptor(n, tuple(map(Fraction, alphas)), dims), a, b)
                        got = _witness_or_refusal(gram_obstruction, t)
                        assert got == _witness_or_refusal(oracle_block_walk_obstruction, t), (t.cls, b)
                        cases += 1
                        refused += isinstance(got, str)
                        silent += got is None
    assert (cases, refused, silent) == (39460, 25776, 458)


def test_witness_projection_class():
    # A = P_{span(e1..ek)}, Y = span(e1), n = 2k-1
    k = 3
    n = 2 * k - 1
    cls = ClassDescriptor(n, (Fraction(1),), (k,))
    from orthoapart import SpectralOperator

    a = SpectralOperator(cls, ((Fraction(1), Subspace.coordinate(n, range(k))),))
    y = Subspace.coordinate(n, [0])
    b = witness_commuting_operator(a, y)
    assert b == oracle_witness_commuting_operator(a, y)
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
    assert b == oracle_witness_commuting_operator(a, y)
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
            assert b == oracle_witness_commuting_operator(a, y)
            assert commutes(a, b)
            assert intersect(image_of(a), image_of(b)) == y
