"""Seeded command lists for the benchmark's three workloads.

A workload's command list is one pass: a fixed multiset of `orthoapart` CLI commands whose
shapes (subcommand, class, ambient dimension, family layout) are the same for
every seed.  The seed picks only what the cost should not depend on much --
eigenvalues, signs of the rotations, the order of frame lines, spanning
vectors, the planted pair and the order of the commands -- so that runs with
different seeds measure the same amount of work.  The program sees nothing
but the generated argv and files.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("label-scan", "matrix-refine", "operator-certify")

# Work unit of each workload, used to print work_rate with its unit.
UNITS = {
    "label-scan": "pairs/s",
    "matrix-refine": "lines/s",
    "operator-certify": "pairs/s",
}

# Pythagorean triples (a, b, c): cos = a/c, sin = b/c is an exact rotation.
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


@dataclass
class Command:
    """One CLI invocation plus what its checker needs to know."""

    kind: str  # lemma3 | lemma4 | scan | refine | planted | orth | comm
    argv: List[str]  # arguments after the program name
    shape: str  # subcommand and sizes, for rates by n
    units: int  # work units the command performs, computed here
    expect: dict = field(default_factory=dict)
    files: Dict[str, object] = field(default_factory=dict)  # name -> JSON body


def member_count(n: int, dims: Sequence[int]) -> int:
    """n! / (d_1! ... d_m! (n-k)!): members of the class's apartment."""
    count = math.factorial(n) // math.factorial(n - sum(dims))
    for d in dims:
        count //= math.factorial(d)
    return count


def pairs(n: int, dims: Sequence[int]) -> int:
    return math.comb(member_count(n, dims), 2)


def _alphas(rng: random.Random, m: int) -> List[str]:
    """m distinct nonzero rational eigenvalues in p/q text form."""
    out: List[Fraction] = []
    while len(out) < m:
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        if a not in out:
            out.append(a)
    return [str(a) for a in out]


def _class_args(n: Optional[int], dims: Sequence[int], alphas: Sequence[str]) -> List[str]:
    args = ["--n", str(n)] if n is not None else []
    # "=" keeps argparse from reading a leading minus sign as an option
    return args + ["--alphas=" + ",".join(alphas), "--dims", ",".join(map(str, dims))]


# ---------------------------------------------------------------------------
# label-scan: verify-lemma3 / verify-lemma4 / scan-boundary on rank-3 and
# rank-4 classes with about 750 to 3,000 members per apartment.  The
# commands' costs are spaced closely around the middle of the list, so that
# op_s.p50 falls among several commands rather than on one, and no command
# is so short that run-to-run noise in a fresh process dominates it.

LABEL_SCAN = (
    ("lemma3", (1, 2), 13),
    ("lemma3", (1, 2), 14),
    ("lemma3", (1, 2), 15),
    ("lemma3", (1, 2), 16),
    ("lemma3", (1, 1, 1), 11),
    ("lemma3", (1, 1, 1), 12),
    ("lemma4", (1, 2), 15),
    ("lemma4", (1, 2), 16),
    ("lemma4", (1, 2), 17),
    ("lemma4", (1, 1, 1), 12),
    ("lemma4", (1, 1, 1), 13),
    ("scan", (2, 2), (9, 12)),
)


def label_scan(rng: random.Random) -> List[Command]:
    cmds = []
    for kind, dims, size in LABEL_SCAN:
        alphas = _alphas(rng, len(dims))
        if kind == "scan":
            lo, hi = size
            k = sum(dims)
            ns = [n for n in range(lo, hi + 1) if 2 * k < n < 4 * k]
            argv = ["scan-boundary"] + _class_args(None, dims, alphas) + ["--n-range", f"{lo}:{hi}"]
            shape = f"scan-boundary n={lo}:{hi} dims {','.join(map(str, dims))}"
            cmds.append(Command(kind, argv, shape, sum(pairs(n, dims) for n in ns), {"ns": ns}))
        else:
            sub = "verify-lemma3" if kind == "lemma3" else "verify-lemma4"
            argv = [sub] + _class_args(size, dims, alphas)
            shape = f"{sub} n={size} dims {','.join(map(str, dims))}"
            cmds.append(Command(kind, argv, shape, pairs(size, dims),
                                {"members": member_count(size, dims)}))
    rng.shuffle(cmds)
    return cmds


# ---------------------------------------------------------------------------
# matrix-refine: refine FAMILY.json over families of sums of lines of a
# rational frame, the frame coming from Pythagorean plane rotations.

# (n, rotations, member sizes) per family; every tenth family is planted
# with one incompatible pair.  Four heavy families (n = 9, 10 with three
# rotations and four members) give op_s.tail a cluster of samples to sit in
# rather than the edge of one or two outliers.
REFINE_SHAPES = (
    (6, 1, (2, 3)), (7, 2, (3, 4, 5)), (8, 3, (4, 5, 6, 2)), (9, 3, (4, 5, 6, 7)),
    (10, 3, (2, 3, 4, 5)), (6, 3, (4, 2, 3, 4)), (7, 1, (4, 5)), (8, 2, (4, 5, 6)),
    (9, 3, (3, 4, 5, 6)), (10, 1, (4, 5)), (6, 2, (3, 4, 2)), (7, 3, (5, 2, 3, 4)),
    (8, 1, (4, 5)), (9, 2, (3, 4, 5)), (10, 3, (6, 7, 8, 5)), (6, 1, (2, 3)),
    (7, 2, (2, 3, 4)), (8, 3, (4, 5, 6, 2)), (9, 1, (2, 3)), (10, 2, (7, 8, 2)),
)
PLANTED_EVERY = 10


def rotated_frame(rng: random.Random, n: int, rotations: int, first: int) -> List[List[Fraction]]:
    """Columns of a product of exact plane rotations in the chained planes
    (0, 1), (1, 2), ..., so the rotated block is dense.  The rotation
    triples are fixed by `first`; the seed picks the signs of the angles."""
    cols = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    for r in range(rotations):
        a, b, c = TRIPLES[(first + r) % len(TRIPLES)]
        cos, sin = Fraction(a, c), Fraction(b, c) * rng.choice((-1, 1))
        for col in cols:
            col[r], col[r + 1] = cos * col[r] - sin * col[r + 1], sin * col[r] + cos * col[r + 1]
    return cols


def _spanning_set(rng: random.Random, frame, indices: Sequence[int]) -> List[List[str]]:
    """One vector per line: the line scaled by a small nonzero integer and a
    small integer multiple of the previous line of the member added, so the
    file does not list the frame lines themselves."""
    out = []
    prev = None
    for i in indices:
        s = rng.choice((1, 2, 3, -1))
        v = [x * s for x in frame[i]]
        if prev is not None:
            c = rng.randint(-2, 2)
            v = [x + c * y for x, y in zip(v, prev)]
        out.append(v)
        prev = frame[i]
    return [[str(x) for x in v] for v in out]


def matrix_refine(rng: random.Random) -> List[Command]:
    """Each family's layout -- which lines of the rotated block each member
    holds -- is fixed by its position in REFINE_SHAPES, because the refine
    cost depends on it, and on the coordinate order through pivoting, far
    more than on anything else.  The seed picks the signs of the rotations,
    the order of the frame lines, the spanning vectors and the order of the
    commands."""
    cmds = []
    for idx, (n, rotations, sizes) in enumerate(REFINE_SHAPES):
        layout = random.Random(idx)
        sets = [layout.sample(range(n), size) for size in sizes]
        frame = rotated_frame(rng, n, rotations, idx)
        order = list(range(n))
        rng.shuffle(order)
        frame = [frame[j] for j in order]
        sets = [sorted(order.index(i) for i in s) for s in sets]
        name = f"family{idx:02d}.json"
        if idx % PLANTED_EVERY == PLANTED_EVERY - 1:
            fam, pair = _planted(rng, frame, sets)
            cmds.append(Command("planted", ["refine", name], f"refine n={n} planted", 0,
                                {"pair": pair}, {name: fam}))
        else:
            fam = [_spanning_set(rng, frame, s) for s in sets]
            cmds.append(Command("refine", ["refine", name], f"refine n={n}", n,
                                {"family": fam}, {name: fam}))
    rng.shuffle(cmds)
    return cmds


def _planted(rng: random.Random, frame, sets: List[List[int]]) -> Tuple[list, List[int]]:
    """A family with exactly one incompatible pair.

    The planted member is the line spanned by u_a + u_b for frame lines a, b.
    A sum of frame lines commutes with it iff it holds both or neither of a
    and b, so every member is adjusted to do that except one target, which
    gets a and loses b.  Returns the family and the planted pair of indices.
    """
    n = len(frame)
    a, b = rng.sample(range(n), 2)
    target = rng.randrange(len(sets))
    fam = []
    for i, s in enumerate(sets):
        s = set(s)  # at least two lines, so one survives the adjustment
        if i == target:
            s.add(a)
            s.discard(b)
        elif a in s:
            s.add(b)
        else:
            s.discard(b)
        fam.append(_spanning_set(rng, frame, sorted(s)))
    line = [[str(x + y) for x, y in zip(frame[a], frame[b])]]
    pos = rng.randrange(len(fam) + 1)
    fam.insert(pos, line)
    t = target if target < pos else target + 1
    return fam, sorted((pos, t))


# ---------------------------------------------------------------------------
# operator-certify: counterexample comm / orth at n = 4, dims 1,1, whose
# 12-member domain is checked pair by pair for both relations.

CERTIFY = ("comm", "orth", "comm", "orth")
CERTIFY_N, CERTIFY_DIMS = 4, (1, 1)


def operator_certify(rng: random.Random) -> List[Command]:
    domain = member_count(CERTIFY_N, CERTIFY_DIMS)
    cmds = []
    for name in CERTIFY:
        argv = ["counterexample", name] + _class_args(CERTIFY_N, CERTIFY_DIMS, _alphas(rng, 2))
        # check_preservation walks every domain pair once per relation
        cmds.append(Command(name, argv, f"counterexample {name} n={CERTIFY_N}",
                            2 * math.comb(domain, 2), {"domain": domain}))
    rng.shuffle(cmds)
    return cmds


def commands(workload: str, seed: int) -> List[Command]:
    rng = random.Random(f"{workload}:{seed}")
    return {"label-scan": label_scan, "matrix-refine": matrix_refine,
            "operator-certify": operator_certify}[workload](rng)
