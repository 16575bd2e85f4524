"""JSON wire formats.

Scalars travel as text ("p/q" or "p/q+r/s i"), vectors as flat arrays of
scalar strings.  Class descriptors:
{"n": int, "alphas": [scalar, ...], "dims": [int, ...]}.  Subspace
families: lists of spanning sets.  Frames: one spanning vector per line.
Labelings: arrays of slot indices with null for kernel lines.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .apartments import Labeling
from .compatibility import Frame
from .errors import OrthoapartError
from .matrices import Vector, vector
from .operators import ClassDescriptor
from .scalars import parse_scalar
from .subspaces import Subspace, projection_of


def vector_from_json(data: Sequence[str]) -> Vector:
    return vector([parse_scalar(str(s)) for s in data])


def vector_to_json(v: Sequence) -> List[str]:
    return [str(x) for x in v]


def class_from_json(data: dict) -> ClassDescriptor:
    alphas = []
    for a in data["alphas"]:
        s = parse_scalar(str(a))
        if not s.is_real:
            raise OrthoapartError("eigenvalues must be real rationals")
        alphas.append(s.re)
    return ClassDescriptor(int(data["n"]), tuple(alphas), tuple(int(d) for d in data["dims"]))


def class_to_json(cls: ClassDescriptor) -> dict:
    return {
        "n": cls.n,
        "alphas": [str(a) for a in cls.alphas],
        "dims": list(cls.dims),
    }


def family_from_json(data: Sequence[Sequence[Sequence[str]]], ambient_dim: Optional[int] = None) -> List[Subspace]:
    """A family file is a JSON list of spanning sets."""
    out = []
    for spanning in data:
        vecs = [vector_from_json(v) for v in spanning]
        out.append(projection_of(vecs, ambient_dim=ambient_dim))
    return out


def frame_to_json(frame: Frame) -> dict:
    return {
        "n": frame.ambient_dim,
        "lines": [vector_to_json(line.line_vector()) for line in frame.lines],
    }


def frame_from_json(data: dict) -> Frame:
    n = int(data["n"])
    lines = tuple(
        projection_of([vector_from_json(v)], ambient_dim=n) for v in data["lines"]
    )
    return Frame(n, lines)


def labeling_from_json(data: Sequence) -> Labeling:
    return Labeling(tuple(None if s is None else int(s) for s in data))


