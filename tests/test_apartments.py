import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from orthoapart import (
    Apartment,
    ClassDescriptor,
    Labeling,
    PairIndex,
    c_eval,
    commutes,
    decide_orthogonality_by_count,
    enumerate_members,
    is_orthogonally_inexact,
    lemma3_bound,
    member_count,
    n_count,
    projection_of,
    standard_apartment,
    verify_maximal_inexact,
)
from orthoapart.apartments import (
    MAX_TRANSFER_STATES,
    _line_groups,
    _member_assignments,
    first_index,
    pair_cells,
    read_cells,
    slot_transfer,
)
from orthoapart.compatibility import Frame
from orthoapart.errors import NotAMember, OrthoapartError, ThresholdViolation

from util import (
    compositions,
    first_member_rank,
    image_overlap,
    in_minus_minus,
    in_orthocomplementary,
    in_plus_minus,
    in_plus_plus,
    labelings_orthogonal,
    member_tables,
    oracle_is_orthogonally_inexact,
    oracle_joint_table,
    oracle_member_assignments,
    oracle_member_row,
    oracle_n_count,
    oracle_pair_cells,
    oracle_support_indices,
    oracle_type_one_subset,
    oracle_verify_maximal_inexact,
    random_labeling,
)


def cls_of(n, dims, alphas=None):
    alphas = alphas or tuple(Fraction(i + 1) for i in range(len(dims)))
    return ClassDescriptor(n, tuple(alphas), tuple(dims))


def test_member_count_matches_enumeration():
    for n, dims in [(4, (1, 1)), (4, (2,)), (5, (1, 2)), (3, (3,)), (6, (1, 1, 1))]:
        cls = cls_of(n, dims)
        members = list(enumerate_members(cls))
        assert len(members) == member_count(cls)
        assert len({m.assignment for m in members}) == len(members)


def test_member_order_matches_sorted_oracle():
    # every class with k <= 4 and k <= n <= 8, n < 2k included: the members
    # generated in order are the sorted list of all assignment tuples
    for k in range(1, 5):
        for dims in compositions(k):
            for n in range(k, 9):
                cls = cls_of(n, dims)
                assert list(_member_assignments(cls)) == oracle_member_assignments(cls), cls
    assert list(_member_assignments(ClassDescriptor(0, (), ()))) == [()]


def test_member_walk_cut_at_a_length_gives_the_distinct_prefixes():
    # every class with n <= 6 (k = 0 included) and every length 0..n: the
    # walk cut at a length yields each prefix of the sorted oracle once, in
    # order of first appearance
    cases = 0
    for n in range(7):
        for k in range(n + 1):
            for dims in compositions(k):
                cls = cls_of(n, dims)
                members = oracle_member_assignments(cls)
                for length in range(n + 1):
                    prefixes = list(dict.fromkeys(a[:length] for a in members))
                    assert list(_member_assignments(cls, length)) == prefixes, (cls, length)
                    cases += 1
    assert cases == 769


def test_member_walk_is_iterative_and_lazy():
    # one frame line per step of a loop, not per level of recursion: n = 1000
    # is past the interpreter's recursion limit, and the first member comes
    # before the rest are built
    cls = ClassDescriptor(1000, (Fraction(1),), (1,))
    members = [a.assignment for a in enumerate_members(cls)]
    assert len(members) == member_count(cls) == 1000
    assert [a.index(0) for a in members] == list(range(1000))
    assert len(oracle_type_one_subset(PairIndex(0, 999), cls)) == 998
    huge = cls_of(10 ** 6, (1, 1, 1))
    assert next(_member_assignments(huge))[:4] == (0, 1, 2, None)


def test_member_count_examples():
    assert member_count(cls_of(4, (1, 1))) == 12
    assert member_count(cls_of(4, (2,))) == 6
    assert member_count(cls_of(3, (3,))) == 1


def test_enumeration_order_deterministic():
    cls = cls_of(4, (1, 1))
    first = [m.assignment for m in enumerate_members(cls)]
    second = [m.assignment for m in enumerate_members(cls)]
    assert first == second
    key = [tuple(2 if s is None else s for s in a) for a in first]
    assert key == sorted(key)


def test_all_members_commute():
    ap = standard_apartment(cls_of(4, (1, 1)))
    ops = [m.to_operator(ap) for m in enumerate_members(ap.cls)]
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert commutes(ops[i], ops[j])


def test_labeling_validation():
    ap = standard_apartment(cls_of(4, (1, 1)))
    with pytest.raises(NotAMember):
        Labeling((0, 0, None, None)).validate(ap.cls)
    with pytest.raises(NotAMember):
        Labeling((0, 1, None)).validate(ap.cls)
    # every entry is a slot of the class (0 <= s < m) or None
    Labeling((0, 1, None, None)).validate(ap.cls)
    for bad in (7, -1, ap.cls.m):
        with pytest.raises(NotAMember, match=f"frame line 2 has label {bad}"):
            Labeling((0, 1, bad, None)).validate(ap.cls)


def test_validation_is_linear_in_n():
    # one count per member, not one per slot: 100 members at n = 1000 with
    # 1,000 one-dimensional slots
    cls = cls_of(1000, (1,) * 1000)
    rng = random.Random(3)
    members = [Labeling(tuple(rng.sample(range(1000), 1000))) for _ in range(100)]
    start = time.perf_counter()
    assert is_orthogonally_inexact(members, cls) == (False, None)
    assert time.perf_counter() - start < 0.3


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
    cls = cls_of(5, (1, 2))
    for a in enumerate_members(cls):
        for i in range(5):
            for j in range(i + 1, 5):
                p = PairIndex(i, j)
                union_form = in_plus_minus(a, i, j) or in_plus_minus(a, j, i)
                complement_form = not (in_plus_plus(a, p) or in_minus_minus(a, p))
                assert in_orthocomplementary(a, p) == union_form == complement_form


def test_projection_class_cross_pair_empty():
    # for a projection class, A(+i,-j) and A(+j,-i) never intersect
    cls = cls_of(5, (2,), (Fraction(1),))
    for a in enumerate_members(cls):
        for i in range(5):
            for j in range(i + 1, 5):
                assert not (in_plus_minus(a, i, j) and in_plus_minus(a, j, i))


def test_n_count_against_subspace_oracle():
    ap = standard_apartment(cls_of(6, (1, 2)))
    members = list(enumerate_members(ap.cls))
    rng = random.Random(31)
    for _ in range(15):
        a, b = rng.sample(members, 2)
        assert n_count(a, b, ap.cls) == oracle_n_count(a.to_operator(ap), b.to_operator(ap), ap)


def test_n_count_orthogonal_pair_is_k_squared():
    ap = standard_apartment(cls_of(12, (1, 2)))
    a = Labeling((0, 1, 1) + (None,) * 9)
    b = Labeling((None,) * 3 + (0, 1, 1) + (None,) * 6)
    assert labelings_orthogonal(a, b)
    assert n_count(a, b, ap.cls) == 9
    assert oracle_n_count(a.to_operator(ap), b.to_operator(ap), ap) == 9


def test_n_count_swapped_pair_value():
    # frozen via the subspace-level oracle below
    ap = standard_apartment(cls_of(8, (1, 1)))
    a = Labeling((0, 1) + (None,) * 6)
    b = Labeling((1, 0) + (None,) * 6)
    assert n_count(a, b, ap.cls) == 13
    assert oracle_n_count(a.to_operator(ap), b.to_operator(ap), ap) == 13


def test_n_count_bound_over_all_pairs_small():
    cls = cls_of(6, (1, 1))
    members = list(enumerate_members(cls))
    k = 2
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            m = image_overlap(members[i], members[j])
            assert n_count(members[i], members[j], cls) >= lemma3_bound(k, m, 6)


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
    cls = cls_of(12, (1, 2))
    a = Labeling((0, 1, 1) + (None,) * 9)
    b = Labeling((0, None, None, 1, 1) + (None,) * 7)
    m = image_overlap(a, b)
    assert m == 1
    assert n_count(a, b, cls) > lemma3_bound(3, m, 12)


def test_is_orthogonally_inexact():
    cls = cls_of(8, (1, 1))
    members = list(enumerate_members(cls))
    inexact, witness = is_orthogonally_inexact(members, cls)
    assert not inexact and witness is None
    inexact, witness = is_orthogonally_inexact([], cls)
    assert inexact and witness is not None
    t1 = oracle_type_one_subset(PairIndex(2, 5), cls)
    inexact, witness = is_orthogonally_inexact(t1, cls)
    assert inexact
    assert {witness.i, witness.j} == {2, 5}


def small_classes(n_max):
    """Every class with 1 <= k <= n <= n_max, one per composition of k."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            for dims in compositions(k):
                yield cls_of(n, dims)


def test_line_groups_match_support_intersection_oracle():
    # every class with n <= 5, on the empty set, every subset of one or two
    # members and every prefix of the member list: the decision and witness,
    # and the group of every line i, against the support intersection they
    # replace.  The groups partition the lines, ascending, in order of their
    # least line
    checked = 0
    for cls in small_classes(5):
        members = list(enumerate_members(cls))
        prefixes = [members[:j] for j in range(1, len(members) + 1)]
        small = [[a] for a in members] + [list(pair) for pair in combinations(members, 2)]
        for subset in [[]] + prefixes + small:
            assert is_orthogonally_inexact(subset, cls) == oracle_is_orthogonally_inexact(subset, cls)
            groups = _line_groups(subset, cls.n)
            assert sorted(i for g in groups for i in g) == list(range(cls.n))
            assert [g[0] for g in groups] == sorted(g[0] for g in groups)
            for g in groups:
                assert g == sorted(g)
                for i in g:
                    assert set(g) == oracle_support_indices(i, subset, cls.n)
            checked += 1
    assert checked == 36035


def test_compute_S():
    # S_i, the lines that the supports of a set cannot tell apart from line i,
    # is read as the group of i: the empty set leaves every line in one group,
    # the whole apartment pins every line down, and a type-(1) set T_ij leaves
    # i and j together
    cls = cls_of(8, (1, 1))
    members = list(enumerate_members(cls))
    assert _line_groups([], 8) == [list(range(8))]
    assert _line_groups(members, 8) == [[i] for i in range(8)]
    groups = _line_groups(oracle_type_one_subset(PairIndex(0, 1), cls), 8)
    group_of_0 = next(g for g in groups if 0 in g)
    assert len(group_of_0) >= 2
    assert 1 in group_of_0
    assert [0, 1] in groups


def test_verify_maximal_inexact_matches_exhaustive_oracle():
    # every pair of every class with n <= 5: the identity against the walk
    # over every single-member extension
    pairs = 0
    for cls in small_classes(5):
        for i, j in combinations(range(cls.n), 2):
            p = PairIndex(i, j)
            assert verify_maximal_inexact(p, cls) is oracle_verify_maximal_inexact(p, cls) is True
            pairs += 1
    assert pairs == 424
    for p in (PairIndex(0, 6), PairIndex(-1, 2), PairIndex(6, 7)):
        with pytest.raises(OrthoapartError, match="is not a pair of frame lines"):
            verify_maximal_inexact(p, cls_of(6, (1, 2)))


def test_inexact_reads_each_label_once():
    # 2,000 members at n = 200: one pass over the label columns, where the
    # support intersection took about 6 s
    cls = cls_of(200, (1, 2))
    rng = random.Random(17)
    members = [random_labeling(cls, rng) for _ in range(2000)]
    start = time.perf_counter()
    assert is_orthogonally_inexact(members, cls) == (False, None)
    assert is_orthogonally_inexact(members[:3], cls) == (True, PairIndex(0, 1))
    assert time.perf_counter() - start < 0.5


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
                assert {cell: first_index(p, cls) for cell, (_, p) in cells.items()} == first, cls
                hits = [i for i, (m, count) in enumerate(row, 1) if m != 0 and count == k * k]
                ranks = [first_index(p, cls) for (m, count), (_, p) in cells.items() if m != 0 and count == k * k]
                assert min(ranks, default=None) == (hits[0] if hits else None), cls
                classes += 1
    assert classes == 158


def test_pair_cells_match_member_tables():
    # every composition of k <= 6 and every n with k <= n <= 4k + 2, n < 2k
    # included (the None column then binds and some tables are infeasible):
    # one slot transfer per dims, read at each n, against pair_cells, against
    # the transfer run again at that n, and against the listed tables' weight
    # and least index per (overlap, count) cell.  Listing the k = 6 tables
    # takes 1-2 s per n, so they are listed only up to n = 2k: where the None
    # column binds and the first n where it does not
    classes = listed = 0
    for k in range(1, 7):
        for dims in compositions(k):
            transfer = slot_transfer(dims)
            for n in range(k, 4 * k + 3):
                cls = cls_of(n, dims)
                cells = read_cells(transfer, cls)
                assert cells == pair_cells(cls), cls
                got = {cell: (w, first_index(prefix, cls)) for cell, (w, prefix) in cells.items()}
                assert got == oracle_pair_cells(cls), cls
                classes += 1
                if k == 6 and n > 2 * k:
                    continue
                want = {}
                for t in member_tables(cls):
                    w, first = want.get((t.overlap, t.count), (0, math.inf))
                    want[t.overlap, t.count] = (w + t.weight, min(first, first_member_rank(cls, t.cells)))
                assert got == want, cls
                listed += 1
    assert (classes, listed) == (1152, 480 + 32 * 7)


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


def test_label_functions_build_no_frame(monkeypatch):
    # the functions that read only labels take the class and build no frame,
    # which at n = 1000 would take minutes
    def boom(*args, **kwargs):
        raise AssertionError("a label function built a frame")

    monkeypatch.setattr(Frame, "__init__", boom)
    big = cls_of(1000, (1, 2))
    assert member_count(big) == 1000 * math.comb(999, 2)
    a = Labeling((0, 1, 1) + (None,) * 997)
    b = Labeling((None,) * 3 + (0, 1, 1) + (None,) * 994)
    c = Labeling((0, None, None, 1, 1) + (None,) * 995)
    assert n_count(a, b, big) == 9
    assert n_count(a, c, big) > lemma3_bound(3, 1, 1000)
    assert decide_orthogonality_by_count(a, b, big)
    assert not decide_orthogonality_by_count(a, c, big)
    small = cls_of(6, (2,), (Fraction(1),))
    assert len(list(enumerate_members(small))) == member_count(small) == 15
    assert len(oracle_type_one_subset(PairIndex(0, 1), small)) == 7
    assert verify_maximal_inexact(PairIndex(0, 1), small)


def rotated_standard_frame(n, p):
    """The standard frame with lines i and j of p replaced by the lines
    through e_i + e_j and e_i - e_j."""
    e = [[int(r == c) for c in range(n)] for r in range(n)]
    vectors = list(e)
    vectors[p.i] = [a + b for a, b in zip(e[p.i], e[p.j])]
    vectors[p.j] = [a - b for a, b in zip(e[p.i], e[p.j])]
    return Frame(n, tuple(projection_of([v]) for v in vectors))


def labeling_in(ap, op):
    """The member of the apartment that is op, or None."""
    return next((a for a in enumerate_members(ap.cls) if a.to_operator(ap) == op), None)


def test_rotated_frame_cross_validation():
    # the rotated apartment's members among the original one are exactly the type-(1) set
    cls = cls_of(4, (1,), (Fraction(1),))
    ap = standard_apartment(cls)
    p = PairIndex(0, 1)
    rot = Apartment(rotated_standard_frame(4, p), cls)
    shared = {lab.assignment for lab in (labeling_in(ap, m.to_operator(rot))
                                         for m in enumerate_members(cls)) if lab}
    expected = {m.assignment for m in oracle_type_one_subset(p, cls)}
    assert shared == expected


def test_verify_maximal_inexact_small():
    cls = cls_of(6, (2,), (Fraction(1),))
    assert verify_maximal_inexact(PairIndex(0, 1), cls)
    assert verify_maximal_inexact(PairIndex(3, 5), cls)


def test_decide_orthogonality_by_count():
    cls = cls_of(12, (1, 2))
    a = Labeling((0, 1, 1) + (None,) * 9)
    b = Labeling((None,) * 3 + (0, 1, 1) + (None,) * 6)
    c = Labeling((0, None, None, 1, 1) + (None,) * 7)
    assert decide_orthogonality_by_count(a, b, cls)
    assert not decide_orthogonality_by_count(a, c, cls)
    small = cls_of(10, (1, 2))
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
    reference = n_count(a, b, cls)

    from orthoapart import Frame, refine_to_frame, split_into_lines

    # apartment from refining the joint eigenspaces (lines get reordered)
    eigenspaces = [x for _, x in op_a.eigenspaces] + [x for _, x in op_b.eigenspaces]
    frame2 = refine_to_frame(eigenspaces)
    ap2 = Apartment(frame2, cls)
    counts = {reference}
    counts.add(n_count(labeling_in(ap2, op_a), labeling_in(ap2, op_b), cls))

    # apartment rotated inside the common kernel plane
    rot = Apartment(rotated_standard_frame(8, PairIndex(6, 7)), cls)
    counts.add(n_count(labeling_in(rot, op_a), labeling_in(rot, op_b), cls))
    assert counts == {reference}
