"""Command-line front end: lemma verification drivers, boundary scans,
counterexample certificates, family refinement, and inexactness decisions.

All reports are JSON with a stable schema_version field and deterministic
contents (sorted aggregation; the same arguments reproduce a
byte-identical report).  Exit codes: 0 = no violations, 1 = violations
found, 2 = configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from . import serialize
from .apartments import (
    Apartment,
    c_eval,
    is_orthogonally_inexact,
    lemma3_bound,
    pair_cells,
)
from .compatibility import refine_to_frame
from .errors import IncompatibleFamily, OrthoapartError, ThresholdViolation
from .operators import ClassDescriptor
from .rigidity import (
    check_preservation,
    example_comm_swap,
    example_orth_swap,
    gram_obstruction,
)
from .scalars import parse_scalar

SCHEMA_VERSION = 1


def _read_json(path: str):
    """Parse a JSON input file.  Nesting too deep for the parser is an input
    error, not a crash."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise OrthoapartError(f"{path}: JSON nested too deeply") from None


def _check_frame(cls: ClassDescriptor, frame_path: Optional[str]) -> None:
    """Load a --frame file and check it against the class.  The label
    decisions do not read the frame."""
    if frame_path is not None:
        Apartment(serialize.frame_from_json(_read_json(frame_path)), cls)


def _cells_by_first(cells: dict, members: int):
    """(m, count, first pair, pairs) for each cell of member 0, in order of
    its first pair [0, first] (see pair_cells)."""
    for (m, count), (w, first) in sorted(cells.items(), key=lambda cell: cell[1][1]):
        yield m, count, [0, first], w * members // 2


def _lemma3_violations(cls: ClassDescriptor, cells: dict, members: int) -> list:
    bounds = [lemma3_bound(cls.rank, m, cls.n) for m in range(cls.rank + 1)]
    return [
        {"pair": pair, "m": m, "count": count, "bound": bounds[m], "pairs": pairs}
        for m, count, pair, pairs in _cells_by_first(cells, members) if count < bounds[m]
    ]


def _lemma4_disagreements(cls: ClassDescriptor, cells: dict, members: int) -> list:
    k2 = cls.rank ** 2
    return [
        {"pair": pair, "by_count": count == k2, "direct": m == 0, "pairs": pairs}
        for m, count, pair, pairs in _cells_by_first(cells, members) if (count == k2) != (m == 0)
    ]


def cmd_verify_lemma3(cls: ClassDescriptor, frame_path: Optional[str] = None) -> dict:
    """Check every member pair of the apartment: the shared-subset count must
    meet the quadratic bound at m = dim(Im cap Im), with exact equality k^2
    on orthogonal pairs.  Member 0's (overlap, count) cells decide all pairs
    (see pair_cells): a cell of weight w holds w*M/2 pairs, which gives each
    histogram cell and pair total, and a violation is one bad cell, listed
    by its first pair.  A --frame file is loaded and checked against the
    class; the counts do not depend on the frame."""
    n, k = cls.n, cls.rank
    if n < 2 * k + 1:
        raise OrthoapartError(f"need n > 2k (n={n}, k={k})")
    _check_frame(cls, frame_path)
    cells = pair_cells(cls)
    members = 1 + sum(w for w, _ in cells.values())
    histogram: dict = {}
    for (m, count), (w, _) in cells.items():
        histogram.setdefault(m, {})[count] = w
    orth = histogram.get(0, {})
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-lemma3",
        "class": serialize.class_to_json(cls),
        "n": n,
        "k": k,
        "members": members,
        "pairs_checked": members * (members - 1) // 2,
        "orthogonal_pairs": sum(orth.values()) * members // 2,
        "orthogonal_pairs_with_k_squared": orth.get(k * k, 0) * members // 2,
        "violations": _lemma3_violations(cls, cells, members),
        "counts_histogram": {
            str(m): sorted([c, f * members // 2] for c, f in hist.items())
            for m, hist in sorted(histogram.items())
        },
    }


def cmd_verify_lemma4(cls: ClassDescriptor, frame_path: Optional[str] = None) -> dict:
    """Check that count == k^2 characterizes orthogonality over all member
    pairs.  Requires n >= 4k.  Member 0's (overlap, count) cells decide all
    pairs (see pair_cells); a disagreement is one bad cell, listed by its
    first pair.  A --frame file is loaded and checked against the class; the
    counts do not depend on the frame."""
    n, k = cls.n, cls.rank
    if n < 4 * k:
        raise ThresholdViolation(f"lemma requires n >= 4k (n={n}, k={k})")
    _check_frame(cls, frame_path)
    cells = pair_cells(cls)
    members = 1 + sum(w for w, _ in cells.values())
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-lemma4",
        "class": serialize.class_to_json(cls),
        "n": n,
        "k": k,
        "members": members,
        "pairs_checked": members * (members - 1) // 2,
        "violations": _lemma4_disagreements(cls, cells, members),
    }


def cmd_scan_boundary(cls_dims: Tuple[int, ...], alphas, n_range: Tuple[int, int]) -> dict:
    """For each even-or-odd n with 2k < n < 4k in the range: tabulate c(0)
    against c((4k-n)/2) when that point is integral, and count the
    non-orthogonal member pairs attaining count k^2: the weight of member
    0's cells with that property times M/2 (see pair_cells).  The first
    such pair in (s, t) order is [0, t] for the least first index t of those
    cells.  Findings are reported, not asserted."""
    k = sum(cls_dims)
    ClassDescriptor(k, tuple(alphas), tuple(cls_dims))  # a bad class is an error before any n
    lo, hi = n_range
    ns = range(max(lo, 2 * k + 1), min(hi, 4 * k - 1) + 1)
    if not ns:
        raise OrthoapartError(f"empty scan range: need 2k < n < 4k for k={k}")
    entries = []
    for n in ns:
        cls = ClassDescriptor(n, tuple(alphas), tuple(cls_dims))
        c0 = c_eval(0, k, n)
        m_star = Fraction(4 * k - n, 2)
        integral = m_star.denominator == 1 and 0 < m_star < k
        cells = pair_cells(cls)
        members = 1 + sum(w for w, _ in cells.values())
        hits = [(w, first) for (m, count), (w, first) in cells.items() if m != 0 and count == k * k]
        entries.append({
            "n": n,
            "c0": str(c0),
            "m_star": str(m_star),
            "m_star_integral": integral,
            "c_at_m_star": str(c_eval(m_star, k, n)) if integral else None,
            "c0_equals_c_m_star": bool(integral and c_eval(m_star, k, n) == c0),
            "nonorthogonal_pairs_with_k_squared": sum(w for w, _ in hits) * members // 2,
            "first_such_pair": [0, min(first for _, first in hits)] if hits else None,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "scan-boundary",
        "k": k,
        "dims": list(cls_dims),
        "alphas": [str(a) for a in alphas],
        "entries": entries,
        "violations": [],
    }


SWAPS = {"orth": example_orth_swap, "comm": example_comm_swap}


def cmd_counterexample(name: str, cls: ClassDescriptor) -> dict:
    """Build the requested swap from the class over its standard apartment,
    every other member a bystander, and emit its preservation/obstruction
    certificate, decided on labels (see rigidity)."""
    if name not in SWAPS:
        raise OrthoapartError(f"unknown counterexample {name!r}")
    t = SWAPS[name](cls)
    witness = gram_obstruction(t)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "counterexample",
        "name": name,
        "class": serialize.class_to_json(cls),
        "domain_size": len(t.members),
        "preserves": {
            "orthogonal": check_preservation(t, "orthogonal"),
            "commute": check_preservation(t, "commute"),
        },
        "witness": (
            None
            if witness is None
            else {
                "s": witness.s,
                "t": witness.t,
                "lhs": str(witness.lhs),
                "rhs": str(witness.rhs),
            }
        ),
        "violations": [],
    }


def cmd_refine(family_path: str, n: Optional[int] = None) -> dict:
    """Refine a family file (JSON list of spanning sets) into a frame."""
    family = serialize.family_from_json(_read_json(family_path), ambient_dim=n)
    frame = refine_to_frame(family, ambient_dim=n)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "refine",
        "frame": serialize.frame_to_json(frame),
        "violations": [],
    }


def cmd_inexact(members_path: str, frame_path: Optional[str] = None) -> dict:
    """Decide orthogonal inexactness of a member set given as labelings."""
    cls, members = serialize.member_set_from_json(_read_json(members_path))
    _check_frame(cls, frame_path)
    inexact, witness = is_orthogonally_inexact(members, cls)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "inexact",
        "class": serialize.class_to_json(cls),
        "member_count": len(members),
        "inexact": inexact,
        "witness": None if witness is None else [witness.i, witness.j],
        "violations": [],
    }


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_alphas(text: str):
    alphas = []
    for part in text.split(","):
        try:
            s = parse_scalar(part)
        except ValueError as exc:
            raise OrthoapartError(
                f"--alphas must be comma-separated exact rationals, got {text!r}: {exc}"
            ) from None
        if not s.is_real:
            raise OrthoapartError("eigenvalues must be real rationals")
        alphas.append(s.re)
    return tuple(alphas)


def _parse_n_range(text: str) -> Tuple[int, int]:
    try:
        lo, hi = (int(p) for p in text.split(":"))
    except ValueError:
        raise OrthoapartError(f"--n-range must have the form lo:hi, got {text!r}") from None
    return lo, hi


def _parse_dims(text: str):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise OrthoapartError(f"--dims must be comma-separated integers, got {text!r}") from None


def _class_from_args(args) -> ClassDescriptor:
    if args.n is None or args.alphas is None or args.dims is None:
        raise OrthoapartError("--n, --alphas and --dims are required")
    return ClassDescriptor(args.n, _parse_alphas(args.alphas), _parse_dims(args.dims))


def _emit(report: dict, args) -> int:
    violations = report.get("violations", [])
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    summary = f"{report['command']}: {'OK' if not violations else 'FAIL'} ({len(violations)} violations)"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(summary)
        print(f"report written to {args.out}")
    else:
        print(summary, file=sys.stderr)
        sys.stdout.write(payload)
    return 0 if not violations else 1


# every argument a subcommand may take; each subcommand takes only those it reads
ARGUMENTS = {
    "name": dict(choices=list(SWAPS)),
    "family": dict(help="family JSON file (list of spanning sets)"),
    "members": dict(help="member-set JSON file (class + labelings)"),
    "--n": dict(type=int, help="ambient dimension"),
    "--alphas": dict(help="comma-separated eigenvalues, exact p/q form"),
    "--dims": dict(help="comma-separated eigenspace dimensions"),
    "--frame": dict(help="frame JSON file, checked against the class"),
    "--n-range": dict(required=True, help="inclusive range lo:hi of ambient dimensions"),
    "--out": dict(help="write the JSON report here"),
}
COMMANDS = {
    "verify-lemma3": ("--n", "--alphas", "--dims", "--frame"),
    "verify-lemma4": ("--n", "--alphas", "--dims", "--frame"),
    "scan-boundary": ("--alphas", "--dims", "--n-range"),
    "counterexample": ("name", "--n", "--alphas", "--dims"),
    "refine": ("family", "--n"),
    "inexact": ("members", "--frame"),
}


def build_parser(argv: List[str]) -> argparse.ArgumentParser:
    """The parser for argv.  Every subcommand is registered, but only the one
    argv names gets its arguments: the top level takes no option but -h, so
    its first token that is not an option is the subcommand."""
    parser = argparse.ArgumentParser(
        prog="orthoapart",
        description="Exact verification toolkit for orthogonal apartments of "
        "conjugacy classes of finite-rank self-adjoint operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for command, names in COMMANDS.items():
        # no prefix matching: scan-boundary --n must not read as --n-range
        p = sub.add_parser(command, allow_abbrev=False)
        if command == named:
            for name in names + ("--out",):
                p.add_argument(name, **ARGUMENTS[name])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if args.command == "verify-lemma3":
            report = cmd_verify_lemma3(_class_from_args(args), args.frame)
        elif args.command == "verify-lemma4":
            report = cmd_verify_lemma4(_class_from_args(args), args.frame)
        elif args.command == "scan-boundary":
            lo, hi = _parse_n_range(args.n_range)
            if args.alphas is None or args.dims is None:
                raise OrthoapartError("--alphas and --dims are required")
            report = cmd_scan_boundary(_parse_dims(args.dims), _parse_alphas(args.alphas), (lo, hi))
        elif args.command == "counterexample":
            report = cmd_counterexample(args.name, _class_from_args(args))
        elif args.command == "refine":
            report = cmd_refine(args.family, n=args.n)
        elif args.command == "inexact":
            report = cmd_inexact(args.members, args.frame)
        else:  # pragma: no cover
            raise OrthoapartError(f"unknown command {args.command}")
    except IncompatibleFamily as exc:
        print(f"incompatible family: pair {exc.pair}", file=sys.stderr)
        sys.stdout.write(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "command": args.command,
                    "error": "incompatible_family",
                    "pair": list(exc.pair),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return 1
    except (OrthoapartError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
