import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from orthoapart import (
    Apartment,
    ClassDescriptor,
    Labeling,
    PairIndex,
    c_eval,
    commutes,
    compute_S,
    decide_orthogonality_by_count,
    enumerate_members,
    image_of,
    in_minus_minus,
    in_orthocomplementary,
    in_plus_minus,
    in_plus_plus,
    intersect,
    is_orthogonally_inexact,
    lemma3_bound,
    member_count,
    membership_labeling,
    n_count,
    orthogonal,
    rotated_frame,
    standard_apartment,
    type_one_subset,
    verify_maximal_inexact,
)
from orthoapart.apartments import (
    MAX_TRANSFER_STATES,
    _member_assignments,
    image_overlap,
    labelings_orthogonal,
    pair_cells,
)
from orthoapart.errors import NotAMember, OrthoapartError, ThresholdViolation
from orthoapart.subspaces import Subspace

from util import (
    compositions,
    first_member_rank,
    member_tables,
    oracle_joint_table,
    oracle_member_assignments,
    oracle_member_row,
    oracle_n_count,
    random_frame,
)


def cls_of(n, dims, alphas=None):
    alphas = alphas or tuple(Fraction(i + 1) for i in range(len(dims)))
    return ClassDescriptor(n, tuple(alphas), tuple(dims))


def test_member_count_matches_enumeration():
    for n, dims in [(4, (1, 1)), (4, (2,)), (5, (1, 2)), (3, (3,)), (6, (1, 1, 1))]:
        ap = standard_apartment(cls_of(n, dims))
        members = list(enumerate_members(ap))
        assert len(members) == member_count(ap)
        assert len({m.assignment for m in members}) == len(members)


def test_member_order_matches_sorted_oracle():
    # every class with k <= 4 and k <= n <= 8, n < 2k included: the members
    # generated in order are the sorted list of all assignment tuples
    for k in range(1, 5):
        for dims in compositions(k):
            for n in range(k, 9):
                cls = cls_of(n, dims)
                assert _member_assignments(cls) == oracle_member_assignments(cls), cls
    assert _member_assignments(ClassDescriptor(0, (), ())) == [()]


def test_member_count_examples():
    assert member_count(standard_apartment(cls_of(4, (1, 1)))) == 12
    assert member_count(standard_apartment(cls_of(4, (2,)))) == 6
    assert member_count(standard_apartment(cls_of(3, (3,)))) == 1


def test_enumeration_order_deterministic():
    ap = standard_apartment(cls_of(4, (1, 1)))
    first = [m.assignment for m in enumerate_members(ap)]
    second = [m.assignment for m in enumerate_members(ap)]
    assert first == second
    key = [tuple(2 if s is None else s for s in a) for a in first]
    assert key == sorted(key)


def test_all_members_commute():
    ap = standard_apartment(cls_of(4, (1, 1)))
    ops = [m.to_operator(ap) for m in enumerate_members(ap)]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert commutes(ops[i], ops[j])


def test_labeling_validation():
    ap = standard_apartment(cls_of(4, (1, 1)))
    with pytest.raises(NotAMember):
        Labeling((0, 0, None, None)).validate(ap.cls)
    with pytest.raises(NotAMember):
        Labeling((0, 1, None)).validate(ap.cls)


def test_predicates():
    # d = (2,): one eigenspace of dimension two
    proj_ap = standard_apartment(cls_of(4, (2,), (Fraction(1),)))
    a = Labeling((0, 0, None, None))
    p12 = PairIndex(0, 1)
    p34 = PairIndex(2, 3)
    assert in_plus_plus(a, p12)
    assert in_minus_minus(a, p34)
    assert not in_plus_minus(a, 0, 1)
    assert in_plus_minus(a, 0, 2)
    assert not in_plus_minus(a, 2, 0)  # index 2 unlabeled
    assert not in_orthocomplementary(a, p12)
    assert not in_orthocomplementary(a, p34)
    assert in_orthocomplementary(a, PairIndex(0, 2))

    # d = (1,1): eigenspaces are lines, plus-plus never holds
    ap = standard_apartment(cls_of(4, (1, 1)))
    b = Labeling((0, 1, None, None))
    assert not in_plus_plus(b, p12)
    assert in_plus_minus(b, 0, 1) and in_plus_minus(b, 1, 0)
    assert in_orthocomplementary(b, p12)


def test_orthocomplementary_two_formulations():
    ap = standard_apartment(cls_of(5, (1, 2)))
    for a in enumerate_members(ap):
        for i in range(5):
            for j in range(i + 1, 5):
                p = PairIndex(i, j)
                union_form = in_plus_minus(a, i, j) or in_plus_minus(a, j, i)
                complement_form = not (in_plus_plus(a, p) or in_minus_minus(a, p))
                assert in_orthocomplementary(a, p) == union_form == complement_form


def test_projection_class_cross_pair_empty():
    # for a projection class, A(+i,-j) and A(+j,-i) never intersect
    ap = standard_apartment(cls_of(5, (2,), (Fraction(1),)))
    for a in enumerate_members(ap):
        for i in range(5):
            for j in range(i + 1, 5):
                assert not (in_plus_minus(a, i, j) and in_plus_minus(a, j, i))


def test_n_count_against_subspace_oracle():
    ap = standard_apartment(cls_of(6, (1, 2)))
    members = list(enumerate_members(ap))
    rng = random.Random(31)
    for _ in range(15):
        a, b = rng.sample(members, 2)
        assert n_count(a, b, ap) == oracle_n_count(a.to_operator(ap), b.to_operator(ap), ap)


def test_n_count_orthogonal_pair_is_k_squared():
    ap = standard_apartment(cls_of(12, (1, 2)))
    a = Labeling((0, 1, 1) + (None,) * 9)
    b = Labeling((None,) * 3 + (0, 1, 1) + (None,) * 6)
    assert labelings_orthogonal(a, b)
    assert n_count(a, b, ap) == 9
    assert oracle_n_count(a.to_operator(ap), b.to_operator(ap), ap) == 9


def test_n_count_swapped_pair_value():
    # frozen via the subspace-level oracle below
    ap = standard_apartment(cls_of(8, (1, 1)))
    a = Labeling((0, 1) + (None,) * 6)
    b = Labeling((1, 0) + (None,) * 6)
    assert n_count(a, b, ap) == 13
    assert oracle_n_count(a.to_operator(ap), b.to_operator(ap), ap) == 13


def test_n_count_bound_over_all_pairs_small():
    ap = standard_apartment(cls_of(6, (1, 1)))
    members = list(enumerate_members(ap))
    k = 2
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            m = image_overlap(members[i], members[j])
            assert n_count(members[i], members[j], ap) >= lemma3_bound(k, m, 6)


def test_lemma3_bound_and_c_eval():
    assert c_eval(0, 3, 10) == 9
    assert c_eval(1, 3, 10) == 9
    assert c_eval(1, 3, 12) == 11
    assert c_eval(0, 5, 21) == 25
    for k, m, n in [(3, 0, 10), (3, 1, 10), (2, 2, 8), (3, 2, 12)]:
        assert lemma3_bound(k, m, n) == c_eval(m, k, n)
    with pytest.raises(OrthoapartError):
        lemma3_bound(3, 4, 10)


def test_remark2_strict_inequality():
    # e_i in both images, e_j in Im(A) only, i and j in different eigenspaces of A
    ap = standard_apartment(cls_of(12, (1, 2)))
    a = Labeling((0, 1, 1) + (None,) * 9)
    b = Labeling((0, None, None, 1, 1) + (None,) * 7)
    m = image_overlap(a, b)
    assert m == 1
    assert n_count(a, b, ap) > lemma3_bound(3, m, 12)


def test_compute_S():
    ap = standard_apartment(cls_of(8, (1, 1)))
    members = list(enumerate_members(ap))
    # empty set: the full space
    assert compute_S(0, [], ap) == Subspace.full(8)
    # the whole apartment pins every line down
    for i in range(8):
        assert compute_S(i, members, ap).dim == 1
    # a type-(1) set leaves the plane of the pair undetermined
    t1 = type_one_subset(PairIndex(0, 1), ap)
    s0 = compute_S(0, t1, ap)
    assert s0.dim >= 2
    assert s0.contains(Subspace.coordinate(8, [1]))


def test_is_orthogonally_inexact():
    ap = standard_apartment(cls_of(8, (1, 1)))
    members = list(enumerate_members(ap))
    inexact, witness = is_orthogonally_inexact(members, ap.cls)
    assert not inexact and witness is None
    inexact, witness = is_orthogonally_inexact([], ap.cls)
    assert inexact and witness is not None
    t1 = type_one_subset(PairIndex(2, 5), ap)
    inexact, witness = is_orthogonally_inexact(t1, ap.cls)
    assert inexact
    assert {witness.i, witness.j} == {2, 5}


def test_inexact_without_members_decides_from_n():
    # with no members every S_i is the whole space, and no set is built
    for n, want in [(0, (False, None)), (1, (False, None)),
                    (2, (True, PairIndex(0, 1))), (5, (True, PairIndex(0, 1)))]:
        assert is_orthogonally_inexact([], ClassDescriptor(n, (), ())) == want


# ---------------------------------------------------------------------------
# the joint-label tables of member 0 against the members read one by one

def test_member_tables_and_ranks_match_every_member():
    # every class with k <= 3 and n <= 8, n < 2k included (some tables are
    # then infeasible): each member's table is listed with the right
    # numbers, the weights count the members, and the first member of a
    # table is the blockwise-sorted one at index first_member_rank
    for k in range(1, 4):
        for dims in compositions(k):
            for n in range(k, 9):
                cls = cls_of(n, dims)
                a, *rest = _member_assignments(cls)
                first, sizes = {}, Counter()
                for index, b in enumerate(rest, 1):
                    cells = oracle_joint_table(cls, a, b)
                    first.setdefault(cells, index)
                    sizes[cells] += 1
                tables = list(member_tables(cls))
                assert {t.cells: t.weight for t in tables} == dict(sizes), cls
                row = dict(zip(rest, oracle_member_row(cls)))
                for t in tables:
                    b = rest[first[t.cells] - 1]
                    assert row[b] == (t.overlap, t.count)
                    assert first_member_rank(cls, t.cells) == first[t.cells]
                    slots = [None if u == cls.m else u for u in range(cls.m + 1)]
                    least = tuple(s for r in t.cells for s, c in zip(slots, r) for _ in range(c))
                    assert least == b
                assert first_member_rank(cls, oracle_joint_table(cls, a, a)) == 0


def test_member_tables_match_member_row_oracle():
    # every composition of k <= 4 and every n with 2k < n <= 4k + 4: pair_cells
    # against member 0's row, members read one by one
    classes = 0
    for k in range(1, 5):
        for dims in compositions(k):
            for n in range(2 * k + 1, 4 * k + 5):
                cls = cls_of(n, dims)
                row = oracle_member_row(cls)
                cells = pair_cells(cls)
                histogram = Counter({cell: w for cell, (w, _) in cells.items()})
                assert histogram == Counter(row), cls
                members = math.perm(n, k) // math.prod(math.factorial(d) for d in dims)
                assert sum(histogram.values()) == len(row) == members - 1
                first = {}
                for i, cell in enumerate(row, 1):
                    first.setdefault(cell, i)
                assert {cell: f for cell, (_, f) in cells.items()} == first, cls
                hits = [i for i, (m, count) in enumerate(row, 1) if m != 0 and count == k * k]
                ranks = [f for (m, count), (_, f) in cells.items() if m != 0 and count == k * k]
                assert min(ranks, default=None) == (hits[0] if hits else None), cls
                classes += 1
    assert classes == 158


def test_pair_cells_match_member_tables():
    # every composition of k <= 5 and every n with k <= n <= 4k + 2, n < 2k
    # included (some tables are then infeasible): the transfer's weight and
    # least index per (overlap, count) cell against the listed tables
    classes = 0
    for k in range(1, 6):
        for dims in compositions(k):
            for n in range(k, 4 * k + 3):
                cls = cls_of(n, dims)
                want = {}
                for t in member_tables(cls):
                    w, first = want.get((t.overlap, t.count), (0, math.inf))
                    want[t.overlap, t.count] = (w + t.weight, min(first, first_member_rank(cls, t.cells)))
                assert pair_cells(cls) == want, cls
                classes += 1
    assert classes == 480


def test_pair_cells_bound_their_states():
    # the state count prod(d + 1) decides, whatever n is: 1^10 is at the
    # limit and runs, 1^11 and (31, 32) are over it and are refused at once
    assert 2 ** 10 == MAX_TRANSFER_STATES
    cls = cls_of(21, (1,) * 10)
    members = math.perm(21, 10)
    assert sum(w for w, _ in pair_cells(cls).values()) == members - 1
    for n, dims, states in ((23, (1,) * 11, 2048), (10 ** 6, (31, 32), 1056)):
        with pytest.raises(OrthoapartError, match=f"need {states} transfer states"):
            pair_cells(cls_of(n, dims))


def test_rotated_frame_cross_validation():
    # the rotated apartment's members among the original one are exactly the type-(1) set
    cls = cls_of(4, (1,), (Fraction(1),))
    ap = standard_apartment(cls)
    p = PairIndex(0, 1)
    rot = Apartment(rotated_frame(ap, p), cls)
    original = {m.assignment for m in enumerate_members(ap)}
    shared = set()
    for m in enumerate_members(rot):
        op = m.to_operator(rot)
        try:
            lab = membership_labeling(ap, op)
        except NotAMember:
            continue
        shared.add(lab.assignment)
    expected = {m.assignment for m in type_one_subset(p, ap)}
    assert shared == expected


def test_verify_maximal_inexact_small():
    ap = standard_apartment(cls_of(6, (2,), (Fraction(1),)))
    assert verify_maximal_inexact(PairIndex(0, 1), ap)
    assert verify_maximal_inexact(PairIndex(3, 5), ap)


def test_decide_orthogonality_by_count():
    ap = standard_apartment(cls_of(12, (1, 2)))
    a = Labeling((0, 1, 1) + (None,) * 9)
    b = Labeling((None,) * 3 + (0, 1, 1) + (None,) * 6)
    c = Labeling((0, None, None, 1, 1) + (None,) * 7)
    assert decide_orthogonality_by_count(a, b, ap)
    assert not decide_orthogonality_by_count(a, c, ap)
    small = standard_apartment(cls_of(10, (1, 2)))
    with pytest.raises(ThresholdViolation):
        decide_orthogonality_by_count(
            Labeling((0, 1, 1) + (None,) * 7),
            Labeling((None,) * 3 + (0, 1, 1) + (None,) * 4),
            small,
        )


def test_apartment_invariance_of_n_count():
    # the same pair of commuting operators, read in different apartments,
    # shares the same number of orthocomplementary subsets
    cls = cls_of(8, (1, 1))
    standard = standard_apartment(cls)
    a = Labeling((0, 1) + (None,) * 6)
    b = Labeling((0, None, 1) + (None,) * 5)
    op_a, op_b = a.to_operator(standard), b.to_operator(standard)
    assert commutes(op_a, op_b)
    reference = n_count(a, b, standard)

    from orthoapart import Frame, refine_to_frame, split_into_lines

    # apartment from refining the joint eigenspaces (lines get reordered)
    eigenspaces = [x for _, x in op_a.eigenspaces] + [x for _, x in op_b.eigenspaces]
    frame2 = refine_to_frame(eigenspaces)
    ap2 = Apartment(frame2, cls)
    counts = {reference}
    counts.add(n_count(membership_labeling(ap2, op_a), membership_labeling(ap2, op_b), ap2))

    # apartment rotated inside the common kernel plane
    rot = Apartment(rotated_frame(standard, PairIndex(6, 7)), cls)
    counts.add(n_count(membership_labeling(rot, op_a), membership_labeling(rot, op_b), rot))
    assert counts == {reference}
