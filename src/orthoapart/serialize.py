"""JSON wire formats.

Scalars travel as text ("p/q" or "p/q+r/s i"), vectors as flat arrays of
scalar strings.  Class descriptors:
{"n": int, "alphas": [scalar, ...], "dims": [int, ...]}.  Subspace
families: lists of spanning sets.  Frames: one spanning vector per line.
Labelings: arrays of slot indices with null for kernel lines.  Member
files: {"class": class, "members": [labeling, ...]}.

A file of the wrong shape (a missing field, a list where an object belongs,
a non-integer dimension) raises OrthoapartError naming the field.
"""

from __future__ import annotations

from math import lcm
from typing import List, Optional, Tuple

from .apartments import Labeling
from .compatibility import Frame
from .errors import OrthoapartError
from .operators import ClassDescriptor
from .scalars import parse_scalar, plain_ratio, scalar_text
from .subspaces import Subspace, projection_of


def _field(data, key: str, where: str):
    if not isinstance(data, dict):
        raise OrthoapartError(f"{where} must be a JSON object, got {type(data).__name__}")
    if key not in data:
        raise OrthoapartError(f"{where} has no {key!r} field")
    return data[key]


def _list(data, where: str) -> list:
    if not isinstance(data, list):
        raise OrthoapartError(f"{where} must be a JSON list, got {type(data).__name__}")
    return data


def _int(data, where: str) -> int:
    if isinstance(data, bool) or not isinstance(data, int):
        raise OrthoapartError(f"{where} must be an integer, got {type(data).__name__}")
    return data


def _scalar(data, where: str):
    if isinstance(data, bool) or not isinstance(data, (str, int, float)):
        raise OrthoapartError(f"{where} must be a scalar, got {type(data).__name__}")
    try:
        return parse_scalar(str(data))
    except ValueError as exc:
        raise OrthoapartError(f"{where}: {exc}") from None


def _column(data, where: str) -> tuple:
    """A vector as the integer column (re, im) over the lcm of its denominators: by
    int() in one pass when all its text is plain p or p/q, else through parse_scalar."""
    items = _list(data, where)
    plain = [plain_ratio(s) if type(s) is str else None for s in items]
    if all(plain):
        d = lcm(*(q for _, q in plain))
        return [p * (d // q) for p, q in plain], None
    parts = []
    for i, (s, pq) in enumerate(zip(items, plain)):
        if pq:
            parts.append((*pq, 0, 1))
        else:
            z = _scalar(s, f"{where}[{i}]")
            parts.append((z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator))
    d = lcm(*(q for _, q, _, _ in parts), *(s for _, _, _, s in parts))
    return [p * (d // q) for p, q, _, _ in parts], [r * (d // s) for _, _, r, s in parts]


def class_from_json(data) -> ClassDescriptor:
    n = _int(_field(data, "n", "class"), "class.n")
    alphas = []
    for i, a in enumerate(_list(_field(data, "alphas", "class"), "class.alphas")):
        s = _scalar(a, f"class.alphas[{i}]")
        if not s.is_real:
            raise OrthoapartError("eigenvalues must be real rationals")
        alphas.append(s.re)
    dims = _list(_field(data, "dims", "class"), "class.dims")
    return ClassDescriptor(n, tuple(alphas), tuple(_int(d, f"class.dims[{i}]") for i, d in enumerate(dims)))


def class_to_json(cls: ClassDescriptor) -> dict:
    return {
        "n": cls.n,
        "alphas": [str(a) for a in cls.alphas],
        "dims": list(cls.dims),
    }


def family_from_json(data, ambient_dim: Optional[int] = None) -> List[Subspace]:
    """A family file is a JSON list of spanning sets."""
    out = []
    for i, spanning in enumerate(_list(data, "family")):
        where = f"family[{i}]"
        cols = [_column(v, f"{where}[{j}]") for j, v in enumerate(_list(spanning, where))]
        out.append(projection_of(cols, ambient_dim=ambient_dim, integer=True))
    return out


def _line_text(line: Subspace) -> List[str]:
    """A line's spanning vector as text: its projection's first nonzero column
    u conj(u_j) / u*u, read off the line's primitive column u."""
    re, im, d = line.basis[0]
    im = im or [0] * len(re)
    a, b = next((a, b) for a, b in zip(re, im) if a or b)  # u_j = a + bi
    return [scalar_text(x * a + y * b, y * a - x * b, d) for x, y in zip(re, im)]


def frame_to_json(frame: Frame) -> dict:
    return {"n": frame.ambient_dim, "lines": [_line_text(line) for line in frame.lines]}


def frame_from_json(data) -> Frame:
    n = _int(_field(data, "n", "frame"), "frame.n")
    lines = _list(_field(data, "lines", "frame"), "frame.lines")
    return Frame(n, tuple(
        projection_of([_column(v, f"frame.lines[{i}]")], ambient_dim=n, integer=True)
        for i, v in enumerate(lines)
    ))


def labeling_from_json(data, where: str) -> Labeling:
    return Labeling(tuple(
        None if s is None else _int(s, f"{where}[{i}]") for i, s in enumerate(_list(data, where))
    ))


def member_set_from_json(data) -> Tuple[ClassDescriptor, List[Labeling]]:
    """A member file is {"class": class, "members": [labeling, ...]}; each
    labeling has one entry per frame line, n in all."""
    cls = class_from_json(_field(data, "class", "member file"))
    members = []
    for i, m in enumerate(_list(_field(data, "members", "member file"), "members")):
        lab = labeling_from_json(m, f"members[{i}]")
        if len(lab.assignment) != cls.n:
            raise OrthoapartError(
                f"members[{i}] has {len(lab.assignment)} entries, the class has n={cls.n}"
            )
        members.append(lab)
    return cls, members
