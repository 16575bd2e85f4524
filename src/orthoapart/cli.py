"""Command-line front end: lemma verification drivers, boundary scans,
counterexample certificates, family refinement, and inexactness decisions.

All reports are JSON with a stable schema_version field and deterministic
contents (sorted aggregation; a fixed seed reproduces a byte-identical
report).  Exit codes: 0 = no violations, 1 = violations found, 2 =
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Tuple

from . import serialize
from .apartments import (
    Apartment,
    _image_mask,
    _pair_mask,
    c_eval,
    enumerate_members,
    is_orthogonally_inexact,
    lemma3_bound,
    standard_apartment,
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
from .subspaces import Subspace

SCHEMA_VERSION = 1


def _apartment(cls: ClassDescriptor, frame_path: Optional[str]) -> Apartment:
    if frame_path is None:
        return standard_apartment(cls)
    with open(frame_path) as fh:
        frame = serialize.frame_from_json(json.load(fh))
    return Apartment(frame, cls)


def _masks(ap: Apartment) -> Tuple[list, list, list]:
    members = list(enumerate_members(ap))
    pair_masks = [_pair_mask(m.assignment) for m in members]
    image_masks = [_image_mask(m.assignment) for m in members]
    return members, pair_masks, image_masks


def cmd_verify_lemma3(cls: ClassDescriptor, frame_path: Optional[str] = None) -> dict:
    """Scan all member pairs of the apartment: the shared-subset count must
    meet the quadratic bound at m = dim(Im cap Im), with exact equality k^2
    on orthogonal pairs."""
    n, k = cls.n, cls.rank
    if n < 2 * k + 1:
        raise OrthoapartError(f"need n > 2k (n={n}, k={k})")
    ap = _apartment(cls, frame_path)
    members, pair_masks, image_masks = _masks(ap)
    bounds = [lemma3_bound(k, m, n) for m in range(k + 1)]
    violations = []
    histogram: dict = {}
    orth_pairs = 0
    orth_k2 = 0
    pairs_checked = 0
    for s in range(len(members)):
        ps, qs = pair_masks[s], image_masks[s]
        for t in range(s + 1, len(members)):
            pairs_checked += 1
            m = (qs & image_masks[t]).bit_count()
            count = (ps & pair_masks[t]).bit_count()
            bound = bounds[m]
            histogram.setdefault(m, {}).setdefault(count, 0)
            histogram[m][count] += 1
            if count < bound:
                violations.append(
                    {"pair": [s, t], "m": m, "count": count, "bound": bound}
                )
            if m == 0:
                orth_pairs += 1
                if count == k * k:
                    orth_k2 += 1
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-lemma3",
        "class": serialize.class_to_json(cls),
        "n": n,
        "k": k,
        "members": len(members),
        "pairs_checked": pairs_checked,
        "orthogonal_pairs": orth_pairs,
        "orthogonal_pairs_with_k_squared": orth_k2,
        "violations": violations,
        "counts_histogram": {
            str(m): sorted([c, f] for c, f in hist.items())
            for m, hist in sorted(histogram.items())
        },
    }


def cmd_verify_lemma4(cls: ClassDescriptor, frame_path: Optional[str] = None) -> dict:
    """Check that count == k^2 characterizes orthogonality over all member
    pairs.  Requires n >= 4k."""
    n, k = cls.n, cls.rank
    if n < 4 * k:
        raise ThresholdViolation(f"lemma requires n >= 4k (n={n}, k={k})")
    ap = _apartment(cls, frame_path)
    members, pair_masks, image_masks = _masks(ap)
    disagreements = []
    pairs_checked = 0
    k2 = k * k
    for s in range(len(members)):
        ps, qs = pair_masks[s], image_masks[s]
        for t in range(s + 1, len(members)):
            pairs_checked += 1
            by_count = (ps & pair_masks[t]).bit_count() == k2
            direct = qs & image_masks[t] == 0
            if by_count != direct:
                disagreements.append(
                    {"pair": [s, t], "by_count": by_count, "direct": direct}
                )
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "verify-lemma4",
        "class": serialize.class_to_json(cls),
        "n": n,
        "k": k,
        "members": len(members),
        "pairs_checked": pairs_checked,
        "violations": disagreements,
    }


def cmd_scan_boundary(cls_dims: Tuple[int, ...], alphas, n_range: Tuple[int, int]) -> dict:
    """For each even-or-odd n with 2k < n < 4k in the range: tabulate c(0)
    against c((4k-n)/2) when that point is integral, and search all member
    pairs for non-orthogonal pairs attaining count k^2.  Findings are
    reported, not asserted."""
    k = sum(cls_dims)
    lo, hi = n_range
    ns = [n for n in range(lo, hi + 1) if 2 * k < n < 4 * k]
    if not ns:
        raise OrthoapartError(f"empty scan range: need 2k < n < 4k for k={k}")
    entries = []
    for n in ns:
        cls = ClassDescriptor(n, tuple(alphas), tuple(cls_dims))
        c0 = c_eval(0, k, n)
        m_star = Fraction(4 * k - n, 2)
        integral = m_star.denominator == 1 and 0 < m_star < k
        entry = {
            "n": n,
            "c0": str(c0),
            "m_star": str(m_star),
            "m_star_integral": integral,
            "c_at_m_star": str(c_eval(m_star, k, n)) if integral else None,
            "c0_equals_c_m_star": bool(integral and c_eval(m_star, k, n) == c0),
        }
        ap = standard_apartment(cls)
        members, pair_masks, image_masks = _masks(ap)
        k2 = k * k
        found = 0
        first_pair = None
        for s in range(len(members)):
            ps, qs = pair_masks[s], image_masks[s]
            for t in range(s + 1, len(members)):
                if qs & image_masks[t] != 0 and (ps & pair_masks[t]).bit_count() == k2:
                    found += 1
                    if first_pair is None:
                        first_pair = [s, t]
        entry["nonorthogonal_pairs_with_k_squared"] = found
        entry["first_such_pair"] = first_pair
        entries.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "scan-boundary",
        "k": k,
        "dims": list(cls_dims),
        "alphas": [str(a) for a in alphas],
        "entries": entries,
        "violations": [],
    }


def cmd_counterexample(name: str, cls: ClassDescriptor) -> dict:
    """Build the requested swap over a full apartment of bystanders and emit
    its preservation/obstruction certificate."""
    n, k = cls.n, cls.rank
    if name == "orth":
        x = Subspace.coordinate(n, range(k))
        t = example_orth_swap(cls, x)
    elif name == "comm":
        if cls.m != 2 or cls.dims[0] != cls.dims[1]:
            raise OrthoapartError(
                "the commutativity counterexample needs two eigenvalues of equal dimension"
            )
        m_dim = cls.dims[0]
        x = Subspace.coordinate(n, range(m_dim))
        y = Subspace.coordinate(n, range(m_dim, 2 * m_dim))
        t = example_comm_swap(n, cls.alphas[0], cls.alphas[1], m_dim, x, y)
    else:
        raise OrthoapartError(f"unknown counterexample {name!r}")
    witness = gram_obstruction(t)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "counterexample",
        "name": name,
        "class": serialize.class_to_json(cls),
        "domain_size": len(t.domain),
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
    with open(family_path) as fh:
        family = serialize.family_from_json(json.load(fh), ambient_dim=n)
    frame = refine_to_frame(family, ambient_dim=n)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "refine",
        "frame": serialize.frame_to_json(frame),
        "violations": [],
    }


def cmd_inexact(members_path: str, frame_path: Optional[str] = None) -> dict:
    """Decide orthogonal inexactness of a member set given as labelings."""
    with open(members_path) as fh:
        data = json.load(fh)
    cls = serialize.class_from_json(data["class"])
    ap = _apartment(cls, frame_path)
    members = [serialize.labeling_from_json(m) for m in data["members"]]
    inexact, witness = is_orthogonally_inexact(members, ap)
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
        s = parse_scalar(part)
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
    return tuple(int(p) for p in text.split(","))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoapart",
        description="Exact verification toolkit for orthogonal apartments of "
        "conjugacy classes of finite-rank self-adjoint operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, help="ambient dimension")
        p.add_argument("--alphas", help="comma-separated eigenvalues, exact p/q form")
        p.add_argument("--dims", help="comma-separated eigenspace dimensions")
        p.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
        p.add_argument("--frame", help="custom frame JSON file")
        p.add_argument("--out", help="write the JSON report here")

    for name in ("verify-lemma3", "verify-lemma4"):
        common(sub.add_parser(name))

    p = sub.add_parser("scan-boundary")
    common(p)
    p.add_argument("--n-range", required=True, help="inclusive range lo:hi of ambient dimensions")

    p = sub.add_parser("counterexample")
    common(p)
    p.add_argument("name", choices=["orth", "comm"])

    p = sub.add_parser("refine")
    common(p)
    p.add_argument("family", help="family JSON file (list of spanning sets)")

    p = sub.add_parser("inexact")
    common(p)
    p.add_argument("members", help="member-set JSON file (class + labelings)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    report["seed"] = args.seed if hasattr(args, "seed") else 0
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
