"""Operator seminorms, adjoints and radii weighted by a PSD matrix.

The package computes, for a fixed positive-semidefinite weight matrix, the
induced vector seminorm and operator seminorm, the distinguished weighted
adjoint, weighted numerical and spectral radii, block operator matrices over
the lifted weight, a family of upper bounds on the block numerical radius,
and a randomized verification harness with a command-line front end.
"""

from .blockops import (
    BlockMatrix,
    antidiagonal_block_matrix,
    assemble,
    block_sharp,
    diagonal_block_matrix,
    flatten,
    hat_matrix,
    lift,
    split_blocks,
    structured_norms,
    structured_omega,
    u_k,
)
from .bounds import BOUND_KEYS, BoundReport, InstanceWork, evaluate_all
from .campaign import CampaignConfig, CampaignResult, run_campaign
from .circle import ThetaSearchResult, sup_on_circle, sup_on_circle_batch
from .config import DEFAULT_TOL, ToleranceConfig
from .core import (
    Operator,
    PsdContext,
    a_adjoint,
    a_op_norm,
    in_ba,
    in_ba_half,
    make_context,
    reduce,
    semi_inner,
    semi_norm,
    spectral_norm,
)
from .errors import (
    ABoundednessWarning,
    BadIndex,
    BlockNotInBA,
    ConstructionFailed,
    DimensionMismatch,
    GelfandDivergence,
    NotABounded,
    NotFinite,
    NotHermitian,
    NotInBA,
    NotPositive,
    RaggedBlocks,
    SemiHilbertError,
    ZeroOperator,
)
from .generators import GenSpec, gen_a_unitary, gen_block_matrix, gen_compatible, gen_psd
from .radii import (
    a_numerical_radius,
    a_spectral_radius,
    classical_numerical_radius,
    classical_spectral_radius,
    gelfand_envelope,
    im_a,
    omega_offdiag,
    omega_real_part_sup,
    re_a,
)

__version__ = "0.1.0"
