"""Exact-arithmetic toolkit for commuting families of finite-rank
self-adjoint operators on C^n.

Core pieces: Gaussian-rational scalars and matrices, subspaces as orthogonal
integer bases, spectral operators and their conjugacy classes,
compatibility and frame refinement, orthogonal apartments with the
orthocomplementary-subset counting machinery, and the counterexample /
obstruction constructions.
"""

from .scalars import GaussianRational, parse_scalar, as_scalar
from .matrices import Matrix, vector
from .subspaces import (
    Subspace,
    complement_within,
    intersect,
    projection_of,
    span_sum,
)
from .compatibility import Frame, is_compatible, projections_commute, refine_to_frame, split_into_lines
from .operators import (
    ClassDescriptor,
    SpectralOperator,
    commutes,
    image_of,
    materialize,
    orthogonal,
)
from .apartments import (
    Apartment,
    Labeling,
    PairIndex,
    c_eval,
    decide_orthogonality_by_count,
    enumerate_members,
    is_orthogonally_inexact,
    lemma3_bound,
    member_count,
    n_count,
    standard_apartment,
    verify_maximal_inexact,
)
from .rigidity import (
    FiniteTransformation,
    GramWitness,
    check_preservation,
    example_comm_swap,
    example_orth_swap,
    gram_obstruction,
    witness_commuting_operator,
)
from . import errors

__all__ = [
    "GaussianRational",
    "parse_scalar",
    "as_scalar",
    "Matrix",
    "vector",
    "Subspace",
    "projection_of",
    "intersect",
    "span_sum",
    "complement_within",
    "Frame",
    "is_compatible",
    "projections_commute",
    "refine_to_frame",
    "split_into_lines",
    "ClassDescriptor",
    "SpectralOperator",
    "materialize",
    "commutes",
    "orthogonal",
    "image_of",
    "Apartment",
    "Labeling",
    "PairIndex",
    "standard_apartment",
    "member_count",
    "enumerate_members",
    "n_count",
    "lemma3_bound",
    "c_eval",
    "is_orthogonally_inexact",
    "verify_maximal_inexact",
    "decide_orthogonality_by_count",
    "FiniteTransformation",
    "GramWitness",
    "example_orth_swap",
    "example_comm_swap",
    "check_preservation",
    "gram_obstruction",
    "witness_commuting_operator",
    "errors",
]

__version__ = "0.1.0"
