"""Command-line front end: lemma verification drivers, boundary scans,
counterexample certificates, family refinement, and inexactness decisions.

All reports are JSON with a stable schema_version field and deterministic
contents (sorted aggregation; the same arguments reproduce a
byte-identical report).  Exit codes: 0 = no violations, 1 = violations
found, 2 = configuration error.

The command line is defined once, by the COMMANDS and ARGUMENTS tables.
A well-formed command is read straight from them; argparse, which builds
the same language from the same tables, is imported only to write help,
usage and error text for every other argv.
"""

from __future__ import annotations

import gc
import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Tuple

from . import serialize
from .apartments import (
    Apartment,
    c_eval,
    first_index,
    is_orthogonally_inexact,
    lemma3_bound,
    member_count,
    pair_cells,
    read_cells,
    slot_transfer,
)
from .compatibility import check_refine_work, refine_to_frame
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
    """(m, count, prefix, pairs) for each cell of member 0, in order of its
    prefix, which is the order of its first pair (see pair_cells)."""
    for (m, count), (w, prefix) in sorted(cells.items(), key=lambda cell: cell[1][1]):
        yield m, count, prefix, w * members // 2


def _lemma3_violations(cls: ClassDescriptor, cells: dict, members: int) -> list:
    bounds = [lemma3_bound(cls.rank, m, cls.n) for m in range(cls.rank + 1)]
    return [
        {"pair": [0, first_index(prefix, cls)], "m": m, "count": count, "bound": bounds[m], "pairs": pairs}
        for m, count, prefix, pairs in _cells_by_first(cells, members) if count < bounds[m]
    ]


def _lemma4_disagreements(cls: ClassDescriptor, cells: dict, members: int) -> list:
    k2 = cls.rank ** 2
    return [
        {"pair": [0, first_index(prefix, cls)], "by_count": count == k2, "direct": m == 0, "pairs": pairs}
        for m, count, prefix, pairs in _cells_by_first(cells, members) if (count == k2) != (m == 0)
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
    members = member_count(cls)
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
    members = member_count(cls)
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
    0's cells with that property times M/2, read at each n off one transfer
    (see pair_cells).  The first such pair in (s, t) order is [0, t], t the
    index of those cells' least prefix.  Findings are reported, not
    asserted."""
    k = sum(cls_dims)
    ClassDescriptor(k, tuple(alphas), tuple(cls_dims))  # a bad class is an error before any n
    lo, hi = n_range
    ns = range(max(lo, 2 * k + 1), min(hi, 4 * k - 1) + 1)
    if not ns:
        raise OrthoapartError(f"empty scan range: need 2k < n < 4k for k={k}")
    transfer, entries = slot_transfer(tuple(cls_dims)), []
    for n in ns:
        cls = ClassDescriptor(n, tuple(alphas), tuple(cls_dims))
        c0 = c_eval(0, k, n)
        m_star = Fraction(4 * k - n, 2)
        integral = m_star.denominator == 1 and 0 < m_star < k
        members = member_count(cls)
        cells = read_cells(transfer, cls).items()
        hits = [(w, prefix) for (m, count), (w, prefix) in cells if m != 0 and count == k * k]
        entries.append({
            "n": n,
            "c0": str(c0),
            "m_star": str(m_star),
            "m_star_integral": integral,
            "c_at_m_star": str(c_eval(m_star, k, n)) if integral else None,
            "c0_equals_c_m_star": bool(integral and c_eval(m_star, k, n) == c0),
            "nonorthogonal_pairs_with_k_squared": sum(w for w, _ in hits) * members // 2,
            "first_such_pair": [0, first_index(min(p for _, p in hits), cls)] if hits else None,
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
    certificate, decided by identities on labels (see rigidity)."""
    if name not in SWAPS:
        raise OrthoapartError(f"unknown counterexample {name!r}")
    t = SWAPS[name](cls)
    witness = gram_obstruction(t)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "counterexample",
        "name": name,
        "class": serialize.class_to_json(cls),
        "domain_size": member_count(cls),
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
    """Refine a family file (JSON list of spanning sets) into a frame.  The work
    bound is checked on the file's shape first: n is --n, else the longest vector."""
    if n is not None and n < 0:
        raise OrthoapartError(f"the ambient dimension --n must be nonnegative, got {n}")
    data = _read_json(family_path)
    if isinstance(data, list):  # any other shape is refused by family_from_json
        vectors = (v for s in data if isinstance(s, list) for v in s if isinstance(v, list))
        check_refine_work(max(map(len, vectors), default=0) if n is None else n, len(data))
    family = serialize.family_from_json(data, ambient_dim=n)
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


def _scan_boundary_from_args(args) -> dict:
    n_range = _parse_n_range(args.n_range)
    if args.alphas is None or args.dims is None:
        raise OrthoapartError("--alphas and --dims are required")
    return cmd_scan_boundary(_parse_dims(args.dims), _parse_alphas(args.alphas), n_range)


def _emit(report: dict, payload: str, args) -> int:
    violations = report.get("violations", [])
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
# subcommand -> (the arguments it takes, the function building its report)
COMMANDS = {
    "verify-lemma3": (("--n", "--alphas", "--dims", "--frame"),
                      lambda args: cmd_verify_lemma3(_class_from_args(args), args.frame)),
    "verify-lemma4": (("--n", "--alphas", "--dims", "--frame"),
                      lambda args: cmd_verify_lemma4(_class_from_args(args), args.frame)),
    "scan-boundary": (("--alphas", "--dims", "--n-range"), _scan_boundary_from_args),
    "counterexample": (("name", "--n", "--alphas", "--dims"),
                       lambda args: cmd_counterexample(args.name, _class_from_args(args))),
    "refine": (("family", "--n"), lambda args: cmd_refine(args.family, n=args.n)),
    "inexact": (("members", "--frame"), lambda args: cmd_inexact(args.members, args.frame)),
}


def _read_args(argv) -> Optional[SimpleNamespace]:
    """The namespace argparse gives for argv, when argv has the plain shape:
    a subcommand, then its own options as --name=value or --name value (a
    value that is not empty and does not start with -) and exactly its
    positionals (each not empty and not starting with -), a repeated option
    keeping its last value.  Every other argv, help and errors included,
    gives None and is left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    names = COMMANDS[argv[0]][0] + ("--out",)
    read = {name: None for name in names if name.startswith("--")}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name not in read:
            if token[:1] in ("", "-"):
                return None
            positionals.append(token)
            continue
        if not eq:
            value = next(tokens, "")
            if value[:1] in ("", "-"):
                return None
        elif value == "--":  # argparse before 3.13 reads --name=-- as []
            return None
        try:
            read[name] = ARGUMENTS[name].get("type", str)(value)
        except ValueError:
            return None
    declared = [name for name in names if name not in read]
    if len(positionals) != len(declared):
        return None
    read.update(zip(declared, positionals))
    for name, value in read.items():
        spec = ARGUMENTS[name]
        missing = value is None and spec.get("required")
        if missing or "choices" in spec and value not in spec["choices"]:
            return None
    return SimpleNamespace(command=argv[0], **{
        name.lstrip("-").replace("-", "_"): value for name, value in read.items()})


def build_parser():
    """The argparse parser for the tables, used only for help, usage and
    errors: main reads a well-formed argv without it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="orthoapart",
        description="Exact verification toolkit for orthogonal apartments of "
        "conjugacy classes of finite-rank self-adjoint operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (names, _) in COMMANDS.items():
        # no prefix matching: scan-boundary --n must not read as --n-range
        p = sub.add_parser(command, allow_abbrev=False)
        for name in names + ("--out",):
            p.add_argument(name, **ARGUMENTS[name])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        # argparse before 3.13 reads --name=-- as the list []
        for name in [name for name, value in vars(args).items() if value == []]:
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        report = COMMANDS[args.command][1](args)
        # a count too long for str() raises ValueError here, before any output
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
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
    return _emit(report, payload, args)


# A command runs once per process, and what the imports made lives until it
# exits: keep those objects out of the collections that the command triggers,
# so that a command's time does not depend on how many objects the imports
# happened to allocate.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
