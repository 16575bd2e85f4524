import random
import sys
from fractions import Fraction

import pytest

from orthoapart import (
    ClassDescriptor,
    Matrix,
    SpectralOperator,
    Subspace,
    commutes,
    enumerate_members,
    image_of,
    intersect,
    is_compatible,
    materialize,
    matrices,
    orthogonal,
    projection_of,
    span_sum,
)
from orthoapart.errors import DimensionMismatch, OrthoapartError

from util import (
    apply,
    compositions,
    conjugate_operator,
    diagonal,
    identity,
    is_zero,
    matrices_commute,
    matrices_orthogonal,
    oracle_image_of,
    oracle_product_compatible,
    oracle_to_operator,
    product_trace,
    random_complex_frame,
    random_frame,
    random_labeling,
    random_operator,
    signed_permutation_matrix,
    span_sum_image,
)
from orthoapart.apartments import Apartment


def e(n, i):
    return [1 if j == i else 0 for j in range(n)]


def op_from_spans(n, alphas, spans):
    spaces = [projection_of(s, ambient_dim=n) for s in spans]
    cls = ClassDescriptor(
        n, tuple(Fraction(a) for a in alphas), tuple(x.dim for x in spaces)
    )
    return SpectralOperator(cls, tuple(zip(cls.alphas, spaces)))


def test_class_validation():
    with pytest.raises(OrthoapartError):
        ClassDescriptor(3, (Fraction(1), Fraction(1)), (1, 1))  # repeated eigenvalue
    with pytest.raises(OrthoapartError):
        ClassDescriptor(3, (Fraction(0),), (1,))  # zero eigenvalue
    with pytest.raises(OrthoapartError):
        ClassDescriptor(2, (Fraction(1), Fraction(2)), (2, 1))  # rank > n
    cls = ClassDescriptor(5, (Fraction(1), Fraction(2)), (1, 2))
    assert cls.rank == 3


def test_operator_validation():
    cls = ClassDescriptor(3, (Fraction(1), Fraction(2)), (1, 1))
    good = SpectralOperator(
        cls,
        ((Fraction(1), projection_of([e(3, 0)])), (Fraction(2), projection_of([e(3, 1)]))),
    )
    assert good.n == 3
    with pytest.raises(OrthoapartError):
        SpectralOperator(
            cls,
            ((Fraction(1), projection_of([e(3, 0)])), (Fraction(2), projection_of([[1, 1, 0]]))),
        )  # eigenspaces not orthogonal


def test_materialize_diagonal():
    a = op_from_spans(2, [1], [[e(2, 0)]])
    assert materialize(a) == diagonal([1, 0])
    b = op_from_spans(3, [1, 2], [[e(3, 0)], [e(3, 1)]])
    assert materialize(b) == diagonal([1, 2, 0])


def test_materialize_rotated():
    a = op_from_spans(2, [1, 2], [[[1, 1]], [[1, -1]]])
    assert materialize(a) == Matrix(
        [[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]]
    )
    # eigenvalue equation holds exactly on each eigenspace
    m = materialize(a)
    from orthoapart import vector

    assert apply(m, [1, 1]) == vector([1, 1])
    assert apply(m, [1, -1]) == vector([2, -2])


def test_commutes_examples():
    a = op_from_spans(3, [1], [[e(3, 0)]])
    b = op_from_spans(3, [1], [[[1, 1, 0]]])
    c = op_from_spans(3, [1], [[e(3, 1)]])
    assert commutes(a, a)
    assert commutes(a, c)  # orthogonal images
    assert not commutes(a, b)  # distinct non-orthogonal lines


def test_orthogonal_examples():
    a = op_from_spans(4, [1], [[e(4, 0), e(4, 1)]])
    b = op_from_spans(4, [1], [[e(4, 2), e(4, 3)]])
    assert orthogonal(a, b)
    assert not orthogonal(a, a)
    c = op_from_spans(4, [1], [[e(4, 1), e(4, 2)]])
    assert not orthogonal(a, c)


def test_orthogonal_implies_commutes_randomized():
    rng = random.Random(11)
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    for _ in range(50):
        a = random_operator(cls, rng)
        b = random_operator(cls, rng)
        if orthogonal(a, b):
            assert commutes(a, b)


def test_image_of():
    a = op_from_spans(3, [1, 2], [[e(3, 0)], [e(3, 1)]])
    assert image_of(a) == projection_of([e(3, 0), e(3, 1)])
    assert image_of(a).dim == a.cls.rank


def test_image_of_equals_span_sum_fold():
    rng = random.Random(13)
    classes = [
        ClassDescriptor(3, (Fraction(1),), (2,)),
        ClassDescriptor(4, (Fraction(1), Fraction(-2)), (1, 2)),
        ClassDescriptor(5, (Fraction(1), Fraction(2), Fraction(1, 3)), (1, 1, 2)),
        ClassDescriptor(6, (Fraction(3), Fraction(-1)), (2, 2)),
    ]
    for cls in classes:
        for _ in range(5):
            op = random_operator(cls, rng)
            assert image_of(op) == span_sum_image(op)


def test_predicates_agree_with_matrix_oracle():
    rng = random.Random(12)
    classes = [
        ClassDescriptor(3, (Fraction(1),), (1,)),
        ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1)),
        ClassDescriptor(4, (Fraction(1), Fraction(-1, 2)), (1, 2)),
    ]
    for _ in range(60):
        cls = rng.choice(classes)
        frame = random_frame(cls.n, rng)
        a = random_operator(cls, rng, frame if rng.random() < 0.5 else None)
        b = random_operator(cls, rng, frame if rng.random() < 0.5 else None)
        assert commutes(a, b) == matrices_commute(a, b)
        assert orthogonal(a, b) == matrices_orthogonal(a, b)


def test_unitary_conjugation_preserves_hs_inner():
    # the trace pairing tr(AB), read off the product of the materialized matrices
    rng = random.Random(13)
    cls = ClassDescriptor(4, (Fraction(1), Fraction(2)), (1, 1))
    perm = [2, 0, 3, 1]
    u = signed_permutation_matrix(4, perm, [1, -1, 1, -1])
    pairing = lambda a, b: product_trace(materialize(a), materialize(b))  # noqa: E731
    for _ in range(20):
        a = random_operator(cls, rng)
        b = random_operator(cls, rng)
        tr = pairing(a, b)
        assert tr.is_real and tr == pairing(b, a)
        assert pairing(conjugate_operator(a, u), conjugate_operator(b, u)) == tr
        assert conjugate_operator(a, u).cls == cls


def test_spectral_data_determines_operator():
    rng = random.Random(14)
    cls = ClassDescriptor(5, (Fraction(1), Fraction(2)), (1, 2))
    frame = random_frame(5, rng)
    ap = Apartment(frame, cls)
    lab = random_labeling(cls, rng)
    a = lab.to_operator(ap)
    b = lab.to_operator(ap)
    assert a.eigenspaces == b.eigenspaces
    assert materialize(a) == materialize(b)


def test_ambient_mismatch():
    a = op_from_spans(2, [1], [[e(2, 0)]])
    b = op_from_spans(3, [1], [[e(3, 0)]])
    for fn in (commutes, orthogonal):
        with pytest.raises(DimensionMismatch):
            fn(a, b)


def test_predicates_build_no_matrix(monkeypatch):
    """`Matrix` only at the boundary: on seeded real and complex rotated
    frames, Labeling.to_operator, image_of, commutes, orthogonal and the
    subspace predicates and lattice operations on the eigenspaces take no
    Matrix product and build no projection.  Their answers agree with the
    product forms, and to_operator and image_of equal the projection-sum
    oracles on every member of every class with n <= 5."""
    products, builds = [], []
    matmul, build = Matrix.__matmul__, matrices.projection_matrix
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    counted = lambda basis, n: builds.append(1) or build(basis, n)  # noqa: E731
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "orthoapart" and getattr(module, "projection_matrix", None) is build:
            monkeypatch.setattr(module, "projection_matrix", counted)

    rng = random.Random(31)
    classes = [ClassDescriptor(n, tuple(Fraction(t + 1) for t in range(len(dims))), dims)
               for n in range(1, 6) for k in range(1, n + 1) for dims in compositions(k)]
    checked = 0
    for c, cls in enumerate(classes):
        frames = [(random_complex_frame if (c + k) % 2 else random_frame)(cls.n, rng) for k in range(2)]
        members = list(enumerate_members(cls))
        products.clear()
        builds.clear()
        ops = [m.to_operator(Apartment(frames[0], cls)) for m in members]
        images = [image_of(a) for a in ops]
        other = random_labeling(cls, rng).to_operator(Apartment(frames[1], cls))
        pairs = [(ops[0], a) for a in ops[:4]] + [(other, a) for a in ops[:4]]
        relations = [(commutes(a, b), orthogonal(a, b)) for a, b in pairs]
        spaces = [(x, y) for a, b in pairs for _, x in a.eigenspaces for _, y in b.eigenspaces]
        answers = [(is_compatible(x, y), x.contains(y), x.is_orthogonal_to(y)) for x, y in spaces]
        joins = [(x.perp(), span_sum(x, y), intersect(x, y)) for x, y in spaces]
        assert products == [] and builds == []

        for m, a, image in zip(members, ops, images):
            assert a == oracle_to_operator(m, Apartment(frames[0], cls))
            assert image == oracle_image_of(a)
        assert relations == [(matrices_commute(a, b), matrices_orthogonal(a, b)) for a, b in pairs]
        for (x, y), got, (perp, join, meet) in zip(spaces, answers, joins):
            p, q = x.proj, y.proj
            assert got == (oracle_product_compatible(x, y), p @ q == q, is_zero(p @ q))
            assert perp == Subspace(identity(cls.n) - p)
            assert join == projection_of([*p.integer_columns(), *q.integer_columns()], integer=True)
            assert meet == Subspace(p @ q) if got[0] else meet.dim < min(x.dim, y.dim)
        checked += len(members)
    assert checked == 1261 and products and builds  # the counters were live
