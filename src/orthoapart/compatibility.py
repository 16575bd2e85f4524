"""Compatibility of subspaces and refinement of a compatible family into a
common orthogonal frame.

Two subspaces X, Y are compatible exactly when their projections commute,
P_X P_Y = P_Y P_X, that is when P_X(Y) <= Y, and then P_X P_Y is the
projection onto X cap Y.  Any finite pairwise-compatible family refines into
a frame (n mutually orthogonal lines spanning the space) such that every
family member is a sum of frame lines: keep a partition of the space into
orthogonal blocks, split each block Y against each member X into X cap Y
and X^perp cap Y, and finally split each block into orthogonal lines.

Compatibility and refinement run on orthogonal integer bases, with no n x n
matrix, and decide by one test (`_split`): the spans of the P_X v and of the
v - P_X v, over Y's basis v, are orthogonal and hold Y, so their dimensions
add up to dim Y exactly when P_X(Y) <= Y, that is when X and Y are
compatible.  Each earlier member is a sum of blocks, so the pairwise scan
runs only to name the first incompatible pair.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from .errors import DimensionMismatch, IncompatibleFamily, OrthoapartError, Value
from .matrices import _addmul, column_inner, gram_schmidt
from .subspaces import Subspace, column_lines, image_rows


# refine_to_frame on f members in C^n: the u*v of each member and block, under n^3 per
# member; at most 2 n^3 per split, under min(n, 2^f) of them (each member at most doubles
# the blocks); the lines and their check, about n^3.  So (f + min(n, 2^f)) n^3 in all
MAX_REFINE_WORK = 3 * 10**8


class Frame(Value):
    """n mutually orthogonal lines spanning C^n: an orthonormal basis
    recorded up to scalar multiples."""

    __slots__ = ("ambient_dim", "lines")

    def __init__(self, ambient_dim: int, lines: Tuple[Subspace, ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "lines", tuple(lines))
        n = ambient_dim
        if len(self.lines) != n:
            raise OrthoapartError(f"a frame in dimension {n} needs exactly {n} lines")
        for line in self.lines:
            if line.ambient_dim != n or line.dim != 1:
                raise OrthoapartError("frame members must be lines of the ambient space")
        # pairwise orthogonality of lines, on their primitive integer columns
        cols = [x.basis[0] for x in self.lines]
        for i in range(n):
            for j in range(i + 1, n):
                if any(column_inner(cols[i], cols[j])):
                    raise OrthoapartError(f"frame lines {i} and {j} are not orthogonal")

    @classmethod
    def standard(cls, n: int) -> "Frame":
        return cls(n, tuple(Subspace.coordinate(n, [i]) for i in range(n)))


def is_compatible(x: Subspace, y: Subspace) -> bool:
    """P_X P_Y = P_Y P_X, as P_X(Y) <= Y: Y does not split against X, or its two
    parts' dimensions add up to dim Y."""
    x._same_ambient(y)
    parts = _split(x.basis, y.basis)
    return parts is None or sum(map(len, parts)) == y.dim


# the earlier name, still imported by the benchmark's self-tests
projections_commute = is_compatible


def split_into_lines(block: Subspace) -> List[Subspace]:
    """Split a subspace into pairwise orthogonal lines spanning it: Gram-Schmidt over
    the projection's columns in column order, read off its basis by `column_lines`."""
    n = block.ambient_dim
    return [Subspace.spanned_by([u], n) for u in column_lines(block.basis, n)]


def check_refine_work(n: int, f: int) -> None:
    """Refuse, before any work, a refinement of f members in C^n over MAX_REFINE_WORK."""
    if (f + min(n, 2 ** min(f, n))) * n**3 > MAX_REFINE_WORK:
        raise OrthoapartError(f"a family of f={f} members in dimension n={n} needs about (f + "
                              f"min(n, 2^f))*n^3 refine steps, over the limit {MAX_REFINE_WORK}")


def _split(us: Sequence[tuple], vs: Sequence[tuple]) -> Optional[Tuple[list, list]]:
    """Block Y against member X, of orthogonal bases vs and us: None when X is orthogonal
    to Y or contains it, else bases of the spans of the P_X v and of the v - P_X v.  A v
    with |P_X v| = 0 or |v| goes to its side as it is, orthogonal to the others' parts."""
    big, rows = image_rows(us, vs)
    meet, rest, images, rests = [], [], [], []
    for v, (row, norm) in zip(vs, rows):  # norm is L |P_X v|^2
        if norm in (0, big * v[2]):
            (meet if norm else rest).append(v)
            continue
        w = [0] * len(v[0]), None
        for (a, b), u in zip(row, us):  # L P_X v = sum (L/d) (u*v) u
            w = _addmul(w, big // u[2] * a, big // u[2] * b, u)
        images.append(w)
        rests.append(_addmul(([-x for x in w[0]], w[1] and [-x for x in w[1]]), big, 0, v))
    if not images and not (meet and rest):
        return None
    return meet + list(gram_schmidt(images)), rest + list(gram_schmidt(rests))


def refine_to_frame(family: Sequence[Subspace], ambient_dim: int | None = None) -> Frame:
    """Refine a pairwise-compatible family into a frame whose lines generate
    every family member.

    Raises DimensionMismatch when members live in different ambient
    dimensions and IncompatibleFamily with the first pair of input indices
    that is not compatible.  Blocks are split in one pass (family order,
    then block order), so the output frame is reproducible; zero and
    repeated members split nothing.  The empty family (with an explicit
    ambient_dim) refines to the standard coordinate frame.
    """
    if not family:
        if ambient_dim is None:
            raise OrthoapartError("ambient_dim required for an empty family")
        return Frame.standard(ambient_dim)
    n = family[0].ambient_dim
    if ambient_dim is not None and ambient_dim != n:
        raise OrthoapartError("ambient_dim disagrees with the family's ambient dimension")
    for i, x in enumerate(family):
        if x.ambient_dim != n:
            raise DimensionMismatch(
                f"family member {i} has ambient dimension {x.ambient_dim}, member 0 has {n}"
            )

    whole = Subspace.full(n)
    blocks: list = [(whole, None)]  # (block, its lines when already read)
    for x in family:
        us, split = x.basis, []
        for y, lines in blocks:
            if y is whole and 0 < len(us) < n:  # X and X^perp, whose lines are read once
                rest = tuple(column_lines(us, n, complement=True))
                split += [(x, None), (Subspace.spanned_by(rest, n), rest)]
                continue
            parts = None if y is whole else _split(us, y.basis)
            if parts is None:
                split.append((y, lines))
                continue
            if sum(map(len, parts)) != y.dim:  # name the pairwise scan's first pair
                raise next(IncompatibleFamily(i, j) for i, j in combinations(range(len(family)), 2)
                           if not is_compatible(family[i], family[j]))
            split += [(Subspace.spanned_by(p, n), None) for p in parts]
        blocks = split

    return Frame(n, tuple(line for y, lines in blocks for line in (
        [Subspace.spanned_by([u], n) for u in lines] if lines else split_into_lines(y))))
