"""Exact-arithmetic toolkit for commuting families of finite-rank
self-adjoint operators on C^n.

Core pieces: Gaussian-rational scalars and matrices, subspaces as canonical
projection matrices, spectral operators and their conjugacy classes,
compatibility and frame refinement, orthogonal apartments with the
orthocomplementary-subset counting machinery, and the counterexample /
obstruction constructions.
"""

from .scalars import GaussianRational, parse_scalar, as_scalar
from .matrices import Matrix, inner, vector
from .subspaces import (
    Subspace,
    complement_within,
    intersect,
    orthogonalize,
    projection_of,
    span_sum,
)
from .compatibility import Frame, is_compatible, projections_commute, refine_to_frame, split_into_lines
from .operators import (
    ClassDescriptor,
    SpectralOperator,
    commutes,
    hs_inner,
    image_of,
    materialize,
    orthogonal,
)
from .apartments import (
    Apartment,
    Labeling,
    PairIndex,
    c_eval,
    compute_S,
    decide_orthogonality_by_count,
    enumerate_members,
    in_minus_minus,
    in_orthocomplementary,
    in_plus_minus,
    in_plus_plus,
    is_orthogonally_inexact,
    lemma3_bound,
    member_count,
    membership_labeling,
    n_count,
    rotated_frame,
    standard_apartment,
    type_one_subset,
    verify_maximal_inexact,
)
from .rigidity import (
    FiniteTransformation,
    GramWitness,
    check_preservation,
    conjugate_operator,
    example_comm_swap,
    example_orth_swap,
    gram_obstruction,
    signed_permutation_matrix,
    witness_commuting_operator,
)
from . import errors

__all__ = [
    "GaussianRational",
    "parse_scalar",
    "as_scalar",
    "Matrix",
    "inner",
    "vector",
    "Subspace",
    "projection_of",
    "intersect",
    "span_sum",
    "complement_within",
    "orthogonalize",
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
    "hs_inner",
    "image_of",
    "Apartment",
    "Labeling",
    "PairIndex",
    "standard_apartment",
    "member_count",
    "enumerate_members",
    "in_plus_plus",
    "in_minus_minus",
    "in_plus_minus",
    "in_orthocomplementary",
    "n_count",
    "lemma3_bound",
    "c_eval",
    "compute_S",
    "is_orthogonally_inexact",
    "type_one_subset",
    "verify_maximal_inexact",
    "decide_orthogonality_by_count",
    "rotated_frame",
    "membership_labeling",
    "FiniteTransformation",
    "GramWitness",
    "example_orth_swap",
    "example_comm_swap",
    "check_preservation",
    "gram_obstruction",
    "conjugate_operator",
    "signed_permutation_matrix",
    "witness_commuting_operator",
    "errors",
]

__version__ = "0.1.0"
