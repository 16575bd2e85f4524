"""Compatibility of subspaces and refinement of a compatible family into a
common orthogonal frame.

Two subspaces X, Y are compatible exactly when their projections commute,
P_X P_Y = P_Y P_X, and then P_X P_Y is the projection onto X cap Y.  Any
finite pairwise-compatible family refines into a frame (n mutually
orthogonal lines spanning the space) such that every family member is a
sum of frame lines: keep a partition of the space into orthogonal blocks,
split each block Y against each member X into the product P_X P_Y (the
meet) and P_Y - P_X P_Y (the rest of Y) whenever the product is neither
zero nor P_Y, and finally split each block into orthogonal lines.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Sequence, Tuple

from .errors import DimensionMismatch, IncompatibleFamily, OrthoapartError, Value
from .matrices import column_inner, gram_schmidt, projection_matrix
from .subspaces import Subspace


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
        # pairwise orthogonality of lines, on the integers of spanning columns
        cols = [x.proj.lead_column()[1] for x in self.lines]
        for i in range(n):
            for j in range(i + 1, n):
                if any(column_inner(cols[i], cols[j])):
                    raise OrthoapartError(f"frame lines {i} and {j} are not orthogonal")

    @classmethod
    def standard(cls, n: int) -> "Frame":
        return cls(n, tuple(Subspace.coordinate(n, [i]) for i in range(n)))


def is_compatible(x: Subspace, y: Subspace) -> bool:
    """Compatibility test: P_X P_Y = P_Y P_X, that is, P_X P_Y = (P_X P_Y)*."""
    x._same_ambient(y)
    return x.proj.product_is_hermitian(y.proj)


# the earlier name, still imported by the benchmark's self-tests
projections_commute = is_compatible


def split_into_lines(block: Subspace) -> List[Subspace]:
    """Split a subspace into pairwise orthogonal lines spanning it.

    Uses fraction-free Gram-Schmidt on the columns of the projection, so the
    lines stay rational and come from its pivot columns, the dependent ones
    reducing to zero.  A line's projection is u u* / (u* u).
    """
    us = gram_schmidt(block.proj.integer_columns())
    return [Subspace(projection_matrix([u], block.ambient_dim)) for u in islice(us, block.dim)]


def refine_to_frame(family: Sequence[Subspace], ambient_dim: int | None = None) -> Frame:
    """Refine a pairwise-compatible family into a frame whose lines generate
    every family member.

    Raises DimensionMismatch when members live in different ambient
    dimensions and IncompatibleFamily with the offending input indices when
    some pair is not compatible.  Blocks are split in one pass (family
    order, then block order), so the output frame is reproducible; zero and
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
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if not is_compatible(family[i], family[j]):
                raise IncompatibleFamily(i, j)

    # every block is a meet of members and member complements, so it commutes
    # with each member and P_X P_Y is the projection onto X cap Y
    blocks: List[Subspace] = [Subspace.full(n)]
    for x in family:
        split: List[Subspace] = []
        for y in blocks:
            z = x.proj @ y.proj
            if z.is_zero() or z == y.proj:
                split.append(y)
            else:
                split += [Subspace(z), Subspace(y.proj - z)]
        blocks = split

    lines: List[Subspace] = []
    for block in blocks:
        lines.extend(split_into_lines(block))
    return Frame(n, tuple(lines))
