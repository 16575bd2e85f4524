"""Acceptance suite: one test per headline guarantee of the package.

Every check is exact — integer or rational equality, never a tolerance.
Each test prints a single ``ACCEPTANCE n: PASS`` line (shown even under
pytest's output capture) so the suite doubles as a report.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from orthoapart import (
    Apartment,
    ClassDescriptor,
    Matrix,
    PairIndex,
    Subspace,
    c_eval,
    check_preservation,
    commutes,
    enumerate_members,
    example_comm_swap,
    example_orth_swap,
    gram_obstruction,
    image_of,
    intersect,
    lemma3_bound,
    materialize,
    n_count,
    orthogonal,
    projection_of,
    refine_to_frame,
    span_sum,
    standard_apartment,
    verify_maximal_inexact,
    witness_commuting_operator,
)
from orthoapart.apartments import decide_orthogonality_by_count
from orthoapart.cli import cmd_scan_boundary
from orthoapart.errors import IncompatibleFamily

from util import (
    image_overlap,
    labelings_orthogonal,
    matrices_commute,
    matrices_orthogonal,
    oracle_verify_maximal_inexact,
    random_frame,
    random_labeling,
    random_operator,
)


def report(capsys, line):
    with capsys.disabled():
        print(line)


def cls_of(n, dims):
    alphas = tuple(Fraction(t + 1) for t in range(len(dims)))
    return ClassDescriptor(n, alphas, dims)


def all_pairs(members):
    return itertools.combinations(members, 2)


def test_acceptance_1_orthogonal_pairs_hit_k_squared(capsys):
    # n = 12, eigenvalue multiplicities (1, 2), k = 3: every orthogonal
    # member pair has exactly k^2 = 9 shared orthocomplementary pair sets
    started = time.monotonic()
    cls = cls_of(12, (1, 2))
    members = list(enumerate_members(cls))
    assert len(members) == 660
    orthogonal_pairs = 0
    for a, b in all_pairs(members):
        if labelings_orthogonal(a, b):
            orthogonal_pairs += 1
            assert n_count(a, b, cls) == 9
    elapsed = time.monotonic() - started
    assert orthogonal_pairs > 0
    assert elapsed < 60.0
    report(
        capsys,
        f"ACCEPTANCE 1: PASS — {orthogonal_pairs} orthogonal pairs among 660 "
        f"members all have n_count = 9 = k^2 ({elapsed:.1f}s)",
    )


def test_acceptance_2_count_bound_all_small_classes(capsys):
    # every commuting member pair satisfies
    # n_count >= (k-m)^2 + m(n-2k+m), m = dim(Im A ∩ Im B)
    dims_list = [(1,), (2,), (1, 1), (3,), (1, 2), (1, 1, 1)]
    checked = 0
    for n in (8, 10, 12):
        for dims in dims_list:
            k = sum(dims)
            cls = cls_of(n, dims)
            members = list(enumerate_members(cls))
            for a, b in all_pairs(members):
                m = image_overlap(a, b)
                assert n_count(a, b, cls) >= lemma3_bound(k, m, n)
                checked += 1
    report(
        capsys,
        f"ACCEPTANCE 2: PASS — count bound holds on all {checked} commuting "
        f"pairs (k <= 3, n in 8/10/12), zero violations",
    )


def test_acceptance_3_count_decides_orthogonality(capsys):
    # at n >= 4k the counting criterion agrees with direct orthogonality
    # on 100% of member pairs
    total = 0
    for n, dims in [(8, (1, 1)), (8, (2,)), (12, (1, 2))]:
        ap = standard_apartment(cls_of(n, dims))
        members = list(enumerate_members(ap.cls))
        for a, b in all_pairs(members):
            assert decide_orthogonality_by_count(a, b, ap.cls) == labelings_orthogonal(a, b)
            total += 1
        # spot-check that the label-level predicate matches the operator level
        rng = random.Random(n)
        for a, b in [rng.sample(members, 2) for _ in range(5)]:
            assert labelings_orthogonal(a, b) == orthogonal(
                a.to_operator(ap), b.to_operator(ap)
            )
    report(
        capsys,
        f"ACCEPTANCE 3: PASS — counting criterion matches orthogonality on "
        f"all {total} member pairs (n=8 k=2, n=12 k=3)",
    )


def test_acceptance_4_boundary_coincidence_and_scan(capsys):
    # c(0) = c((4k-n)/2) exactly at (k, n) = (3, 10); (2, 7) has no
    # integral midpoint and is excluded
    assert c_eval(0, 3, 10) == c_eval(1, 3, 10) == 9
    m_star = Fraction(4 * 2 - 7, 2)
    assert m_star.denominator != 1

    args = ((1, 2), (Fraction(1), Fraction(2)), (10, 10))
    first = cmd_scan_boundary(*args)
    second = cmd_scan_boundary(*args)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    (entry,) = first["entries"]
    assert entry["c0_equals_c_m_star"]
    found = entry["nonorthogonal_pairs_with_k_squared"]
    report(
        capsys,
        f"ACCEPTANCE 4: PASS — c(0)=c(1)=9 at (k,n)=(3,10); (2,7) midpoint "
        f"non-integral; deterministic n=10 scan found {found} non-orthogonal "
        f"pair(s) attaining k^2 (existence recorded, not asserted)",
    )


def test_acceptance_5_type_one_sets_maximally_inexact(capsys):
    # n = 8, k = 2, multiplicities (1, 1): for every index pair the
    # two-sided set is orthogonally inexact and every single-member
    # extension is exact, by the identity and by the exhaustive oracle
    cls = cls_of(8, (1, 1))
    pairs = [PairIndex(i, j) for i in range(8) for j in range(i + 1, 8)]
    assert len(pairs) == 28
    for p in pairs:
        assert verify_maximal_inexact(p, cls)
        assert oracle_verify_maximal_inexact(p, cls)
    report(
        capsys,
        "ACCEPTANCE 5: PASS — all 28 index pairs at n=8, k=2 give maximally "
        "inexact two-sided sets (exhaustive extension check)",
    )


def test_acceptance_6_randomized_refinement(capsys):
    rng = random.Random(2024)
    for trial in range(100):
        n = rng.randint(2, 10)
        gen = random_frame(n, rng, rotations=rng.randint(1, 3))
        family = []
        for _ in range(rng.randint(1, 3)):
            picks = [i for i in range(n) if rng.random() < 0.5]
            proj = Matrix.zeros(n, n)
            for i in picks:
                proj = proj + gen.lines[i].proj
            family.append(Subspace(proj))
        frame = refine_to_frame(family, ambient_dim=n)
        assert len(frame.lines) == n  # Frame() already validated orthogonality
        for x in family:
            rebuilt = Subspace.zero(n)
            for line in frame.lines:
                if x.contains(line):
                    rebuilt = span_sum(rebuilt, line)
            assert rebuilt == x

    # a planted incompatible pair must be rejected with its indices
    slanted = projection_of([[1, 1, 0]])
    axis = projection_of([[1, 0, 0]])
    with pytest.raises(IncompatibleFamily) as exc:
        refine_to_frame([axis, slanted])
    assert exc.value.pair == (0, 1)
    report(
        capsys,
        "ACCEPTANCE 6: PASS — 100 seeded families (n <= 10) refine to valid "
        "frames with exact reconstruction; incompatible pair rejected",
    )


def test_acceptance_7_counterexample_transformations(capsys):
    cls = cls_of(4, (1, 1))
    t_orth = example_orth_swap(cls)
    assert check_preservation(t_orth, "orthogonal")
    assert gram_obstruction(t_orth) is not None

    t_comm = example_comm_swap(cls)
    assert check_preservation(t_comm, "commute")
    witness = gram_obstruction(t_comm)
    assert witness is not None
    assert {witness.lhs, witness.rhs} == {Fraction(1), Fraction(2)}
    report(
        capsys,
        "ACCEPTANCE 7: PASS — both swap transformations preserve their "
        "relation yet break trace pairings (witness traces 1 vs 2)",
    )


def test_acceptance_8_predicates_match_matrix_oracle(capsys):
    rng = random.Random(77)
    classes = [
        cls_of(3, (1,)),
        cls_of(4, (1, 1)),
        cls_of(4, (2,)),
        cls_of(5, (1, 2)),
        cls_of(6, (1, 1)),
    ]
    agreements = 0
    for _ in range(1000):
        cls = rng.choice(classes)
        if rng.random() < 0.5:
            frame = random_frame(cls.n, rng, rotations=2)
            ap = Apartment(frame, cls)
            a = random_labeling(cls, rng).to_operator(ap)
            b = random_labeling(cls, rng).to_operator(ap)
        else:
            a = random_operator(cls, rng)
            b = random_operator(cls, rng)
        assert commutes(a, b) == matrices_commute(a, b)
        assert orthogonal(a, b) == matrices_orthogonal(a, b)
        agreements += 1
    report(
        capsys,
        f"ACCEPTANCE 8: PASS — commutes/orthogonal agree with matrix-product "
        f"oracles on {agreements} randomized pairs",
    )


def test_acceptance_9_commuting_witness_postconditions(capsys):
    rng = random.Random(99)
    classes = [
        cls_of(4, (1, 1)),
        cls_of(5, (1, 1)),
        cls_of(6, (1, 2)),
        cls_of(7, (1, 2)),
        cls_of(6, (1, 1, 1)),
    ]
    operators = 0
    witnesses = 0
    while operators < 50:
        cls = rng.choice(classes)
        a = random_operator(cls, rng)
        operators += 1
        for slot, d in enumerate(cls.dims):
            if d != 1:
                continue
            y = a.eigenspaces[slot][1]
            b = witness_commuting_operator(a, y)
            assert b.cls == a.cls
            ma, mb = materialize(a), materialize(b)
            assert ma @ mb == mb @ ma
            assert intersect(image_of(a), image_of(b)) == y
            witnesses += 1
    report(
        capsys,
        f"ACCEPTANCE 9: PASS — witness postconditions hold on {witnesses} "
        f"eigenlines of {operators} randomized operators",
    )
