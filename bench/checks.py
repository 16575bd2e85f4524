"""Correctness checks on CLI outcomes, run outside the timed region.

`check(cmd, code, report)` returns None when the command's exit code and
report are right, and otherwise a one-line reason.  The refine check uses
its own exact Gaussian-rational arithmetic, not the package's, so a bug in
the package's matrix layer cannot vouch for itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

GQ = Tuple[Fraction, Fraction]  # re, im


def parse(text: str) -> GQ:
    """Scalar text "p/q", "p/q+r/si", "r/si" or "i" as (re, im)."""
    s = "".join(str(text).split())
    if not s.endswith("i"):
        return Fraction(s), Fraction(0)
    body = s[:-1]
    cut = max(body.rfind("+", 1), body.rfind("-", 1))
    re, im = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    im = {"": "1", "+": "1", "-": "-1"}.get(im, im)
    return Fraction(re or 0), Fraction(im)


def _sub_mul(a: GQ, f: GQ, b: GQ) -> GQ:
    """a - f*b."""
    return (a[0] - (f[0] * b[0] - f[1] * b[1]), a[1] - (f[0] * b[1] + f[1] * b[0]))


def _div(a: GQ, b: GQ) -> GQ:
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _inner(u: Sequence[GQ], v: Sequence[GQ]) -> GQ:
    """Hermitian <u, v> = sum conj(u_i) v_i."""
    re = sum((a[0] * b[0] + a[1] * b[1] for a, b in zip(u, v)), Fraction(0))
    im = sum((a[0] * b[1] - a[1] * b[0] for a, b in zip(u, v)), Fraction(0))
    return re, im


def _reduce(basis: List[Tuple[int, List[GQ]]], v: Sequence[GQ]) -> List[GQ]:
    """v minus its components along an echelon basis.  Each row has a unit
    entry at its pivot and zeros at the pivots of the rows before it, so
    reducing in order leaves zeros at every pivot: v is in the span iff
    the result is zero."""
    v = list(v)
    for pivot, row in basis:
        f = v[pivot]
        if f[0] or f[1]:
            v = [_sub_mul(x, f, y) for x, y in zip(v, row)]
    return v


def _extend(basis: List[Tuple[int, List[GQ]]], v: Sequence[GQ]) -> bool:
    """Add v to the echelon basis unless it is already in the span."""
    r = _reduce(basis, v)
    pivot = next((i for i, x in enumerate(r) if x[0] or x[1]), None)
    if pivot is None:
        return False
    basis.append((pivot, [_div(x, r[pivot]) for x in r]))
    return True


def frame_problem(family: Sequence[Sequence[Sequence[str]]], frame: dict) -> Optional[str]:
    """The lines must be n pairwise orthogonal nonzero vectors, and every
    family member must be the sum of the lines it contains: as the lines are
    independent, the contained lines number exactly dim(member)."""
    n = len(family[0][0])
    lines = [[parse(x) for x in line] for line in frame.get("lines", [])]
    if frame.get("n") != n or len(lines) != n or any(len(l) != n for l in lines):
        return f"frame needs {n} lines of length {n}, got {len(lines)}"
    for i, u in enumerate(lines):
        if _inner(u, u) == (0, 0):
            return f"frame line {i} is zero"
        for j in range(i):
            if _inner(lines[j], u) != (0, 0):
                return f"frame lines {j} and {i} are not orthogonal"
    for k, spanning in enumerate(family):
        basis: List[Tuple[int, List[GQ]]] = []
        for v in spanning:
            _extend(basis, [parse(x) for x in v])
        inside = sum(1 for u in lines if not any(x[0] or x[1] for x in _reduce(basis, u)))
        if inside != len(basis):
            return f"member {k} has dim {len(basis)} but contains {inside} frame lines"
    return None


def check(cmd, code: Optional[int], report: Optional[dict]) -> Optional[str]:
    """None if the command's outcome is right, else why it is not.  `report`
    is the JSON the command wrote: its --out file, or for a planted family
    the error object on stdout."""
    want = 1 if cmd.kind == "planted" else 0
    if code != want:
        return f"exit code {code}, expected {want}"
    if not isinstance(report, dict):
        return "no JSON report"
    try:
        return CHECKS[cmd.kind](cmd, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError) as exc:
        return f"malformed report: {exc!r}"


def _lemma3(cmd, r: dict) -> Optional[str]:
    m = cmd.expect["members"]
    if r["members"] != m or r["pairs_checked"] != math.comb(m, 2):
        return f"pairs_checked {r['pairs_checked']} != C({m}, 2)"
    total = sum(f for hist in r["counts_histogram"].values() for _, f in hist)
    if total != r["pairs_checked"]:
        return f"histogram sums to {total}, not pairs_checked"
    if r["violations"]:
        return f"{len(r['violations'])} violations"
    if r["orthogonal_pairs_with_k_squared"] != r["orthogonal_pairs"]:
        return "an orthogonal pair misses count k^2"
    return None


def _lemma4(cmd, r: dict) -> Optional[str]:
    m = cmd.expect["members"]
    if r["members"] != m or r["pairs_checked"] != math.comb(m, 2):
        return f"pairs_checked {r['pairs_checked']} != C({m}, 2)"
    if r["violations"]:
        return f"{len(r['violations'])} disagreements"
    return None


def _scan(cmd, r: dict) -> Optional[str]:
    if [e["n"] for e in r["entries"]] != cmd.expect["ns"]:
        return "scan entries do not cover the range"
    for e in r["entries"]:
        found = e["nonorthogonal_pairs_with_k_squared"]
        if not isinstance(found, int) or found < 0 or (found == 0) != (e["first_such_pair"] is None):
            return f"inconsistent entry at n={e['n']}"
    if r["violations"]:
        return f"{len(r['violations'])} violations"
    return None


def _refine(cmd, r: dict) -> Optional[str]:
    return frame_problem(cmd.expect["family"], r["frame"])


def _planted(cmd, r: dict) -> Optional[str]:
    if r.get("error") != "incompatible_family" or r.get("pair") != cmd.expect["pair"]:
        return f"expected incompatible pair {cmd.expect['pair']}, got {r.get('pair')}"
    return None


def _counterexample(cmd, r: dict) -> Optional[str]:
    relation = {"orth": "orthogonal", "comm": "commute"}[cmd.kind]
    if r["domain_size"] != cmd.expect["domain"]:
        return f"domain size {r['domain_size']}, expected {cmd.expect['domain']}"
    if r["preserves"][relation] is not True:
        return f"the swap does not preserve {relation}"
    w = r["witness"]
    if w is None:
        return "no trace-pairing witness"
    if parse(w["lhs"]) == parse(w["rhs"]):
        return "witness has lhs == rhs"
    return None


CHECKS = {
    "lemma3": _lemma3,
    "lemma4": _lemma4,
    "scan": _scan,
    "refine": _refine,
    "planted": _planted,
    "orth": _counterexample,
    "comm": _counterexample,
}
