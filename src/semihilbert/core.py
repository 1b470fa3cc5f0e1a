"""Positive-semidefinite weight contexts and the operator calculus they induce.

A :class:`PsdContext` wraps a Hermitian positive-semidefinite matrix ``A``
together with its eigenpairs, the one representation of the weight: the
``r = rank(A)`` nonzero pairs ``V_r``, ``Lambda_r`` span ``range(A)`` and the
rest ``V_0`` its orthogonal complement.  Vectors are measured by the seminorm
``||x||_A = sqrt(x* A x)`` and operators by the induced seminorm.

The workhorse is :func:`reduce`.  For an A-bounded operator ``T`` the image
``A^{1/2} T (A^{1/2})^+`` is ``V_r C V_r^*`` with ``C = Lambda_r^{1/2} V_r^* T
V_r Lambda_r^{-1/2}``; the r x r matrix ``C`` has the image's classical norm,
numerical radius and spectral radius, which are the A-weighted ones of ``T``.
The map is multiplicative on A-bounded operators and sends the weighted
adjoint to the conjugate transpose, which the test suite exploits as an oracle.

Each formula has one home, a primitive on stacks ``(..., n, n)`` that covers
one operator or a whole block grid in one call: :func:`top_singular`, the
membership tests :func:`first_failure`, :func:`reduce_stack` and
:func:`adjoint_stack`, all built from ``V_r``, ``Lambda_r`` and ``V_0``.  The
per-operator functions are checked calls over them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    ABoundednessWarning,
    DimensionMismatch,
    NotABounded,
    NotFinite,
    NotHermitian,
    NotInBA,
    NotPositive,
    ZeroOperator,
)

__all__ = [
    "PsdContext",
    "Operator",
    "make_context",
    "semi_inner",
    "semi_norm",
    "in_ba",
    "in_ba_half",
    "a_adjoint",
    "reduce",
    "a_op_norm",
    "spectral_norm",
    "top_singular",
    "first_failure",
    "reduce_stack",
    "adjoint_stack",
]


def _as_square_complex(a) -> np.ndarray:
    m = np.array(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotFinite("matrix has NaN or infinite entries")
    return m


def top_singular(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack of shape ``(..., m, n)``."""
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value; 0.0 for empty input."""
    if m.size == 0:
        return 0.0
    return float(top_singular(m))


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class PsdContext:
    """A Hermitian PSD weight matrix with its eigenpairs.

    Eigenvalues are stored in descending order; everything below
    ``rank_rtol * lambda_max`` is truncated to exactly zero, so the first
    ``rank`` columns of ``eigvecs`` span ``range(A)`` and the rest its
    complement.  Every weighted formula reads these pairs, so numerical
    null-space leakage cannot contaminate downstream computations.
    """

    a: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def norm(self) -> float:
        """Largest eigenvalue of the weight matrix."""
        return float(self.eigvals[0])

    def same_weight(self, other: PsdContext) -> bool:
        """True when both contexts carry the same weight matrix."""
        return self.dim == other.dim and np.array_equal(self.a, other.a)


def make_context(a, tol: ToleranceConfig = DEFAULT_TOL) -> PsdContext:
    """Validate a Hermitian PSD matrix and compute its truncated eigenpairs.

    Raises DimensionMismatch unless the matrix is square and non-empty,
    NotHermitian when the asymmetry exceeds tolerance, NotPositive when an
    eigenvalue falls below ``-cmp_atol`` (smaller negatives are clamped to
    zero), and ZeroOperator when the matrix is numerically zero.
    """
    m = _as_square_complex(a)
    if m.size == 0:
        raise DimensionMismatch("weight matrix is empty")
    scale = spectral_norm(m)
    if spectral_norm(m - m.conj().T) > tol.cmp_atol * (1.0 + scale):
        raise NotHermitian("weight matrix is not Hermitian within tolerance")
    m = (m + m.conj().T) / 2.0

    w, v = np.linalg.eigh(m)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    if w[-1] < -tol.cmp_atol:
        raise NotPositive(f"eigenvalue {w[-1]:.3e} below -cmp_atol")
    w = np.maximum(w, 0.0)
    if w[0] <= tol.cmp_atol:
        raise ZeroOperator("weight matrix is numerically zero")
    w[w < tol.rank_rtol * w[0]] = 0.0
    rank = int(np.count_nonzero(w))

    return PsdContext(
        a=_frozen(m),
        eigvals=_frozen(w),
        eigvecs=_frozen(v),
        rank=rank,
    )


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex square matrix interpreted against a weight context."""

    t: np.ndarray
    ctx: PsdContext

    def __post_init__(self):
        m = _as_square_complex(self.t)
        if m.shape[0] != self.ctx.dim:
            raise DimensionMismatch(
                f"operator is {m.shape[0]}x{m.shape[0]} but context is {self.ctx.dim}-dimensional"
            )
        object.__setattr__(self, "t", _frozen(m))

    @property
    def dim(self) -> int:
        return self.t.shape[0]

    @cached_property
    def reduced(self) -> np.ndarray:
        """The unchecked, read-only :func:`reduce_stack` of ``t``, computed once."""
        return _frozen(reduce_stack(self.ctx, self.t))


def _as_vector(x, n: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.complex128).reshape(-1)
    if v.shape[0] != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise NotFinite("vector has NaN or infinite entries")
    return v


def semi_inner(x, y, ctx: PsdContext) -> complex:
    """Weighted product x* -> y* A x: linear in ``x``, conjugate-linear in ``y``."""
    xv = _as_vector(x, ctx.dim)
    yv = _as_vector(y, ctx.dim)
    return complex(np.vdot(yv, ctx.a @ xv))


def semi_norm(x, ctx: PsdContext) -> float:
    """Weighted seminorm sqrt(x* A x); zero on the null space of A."""
    val = semi_inner(x, x, ctx).real
    return math.sqrt(max(val, 0.0))


def first_failure(
    ctx: PsdContext, mats: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, half: bool = False
) -> tuple[int, ...] | None:
    """Index of the first matrix in a stack ``(..., n, n)`` failing membership, else None.

    Admitting a weighted adjoint, range(T* A) inside range(A), is the residual
    ||V_0^* T^* V_r Lambda_r|| (= ||(I - P) T* A||) against a slack scaled by
    ||A|| ||T||; with ``half`` the test is boundedness for the seminorm,
    ||Lambda_r^{1/2} V_r^* T V_0|| (= ||A^{1/2} T (I - P)||) against
    ||A||^{1/2} ||T||.  A full-rank weight has no ``V_0`` and admits every
    operator.  A single failing matrix gives ``()``.
    """
    if ctx.rank == ctx.dim:
        return None
    v, w = ctx.eigvecs, ctx.eigvals[: ctx.rank]
    leak = v[:, : ctx.rank].conj().T @ mats @ v[:, ctx.rank :]  # V_r^* T V_0
    # the adjoint residual is the conjugate transpose of Lambda_r V_r^* T V_0
    weight, scale = (np.sqrt(w), math.sqrt(ctx.norm)) if half else (w, ctx.norm)
    resid = top_singular(weight[:, None] * leak)
    bad = resid > tol.cmp_atol * (1.0 + scale * top_singular(mats))
    if not bad.any():
        return None
    return tuple(int(k) for k in np.argwhere(bad)[0])


def reduce_stack(ctx: PsdContext, mats: np.ndarray) -> np.ndarray:
    """Compressions ``C`` of a stack ``(..., n, n)``, shape ``(..., r, r)``, unchecked."""
    v, root = ctx.eigvecs[:, : ctx.rank], np.sqrt(ctx.eigvals[: ctx.rank])
    return root[:, None] * (v.conj().T @ mats @ v) / root


def adjoint_stack(ctx: PsdContext, mats: np.ndarray) -> np.ndarray:
    """Weighted adjoints ``A^+ T* A`` of a stack ``(..., n, n)``, unchecked.

    Computed on range(A) as ``V_r (Lambda_r^{-1} (V_r^* T^* V_r) Lambda_r) V_r^*``.
    """
    v, w = ctx.eigvecs[:, : ctx.rank], ctx.eigvals[: ctx.rank]
    inner = v.conj().T @ np.conj(np.swapaxes(mats, -1, -2)) @ v
    return v @ (inner * (w / w[:, None])) @ v.conj().T


def in_ba(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the operator admits a weighted adjoint (see :func:`first_failure`)."""
    return first_failure(op.ctx, op.t, tol) is None


def in_ba_half(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True when the operator is bounded for the weighted seminorm."""
    return first_failure(op.ctx, op.t, tol, half=True) is None


def a_adjoint(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> Operator:
    """Distinguished weighted adjoint ``A^+ T* A``.

    It is the minimal-range solution of ``A X = T* A``; applying it twice
    gives the compression ``P T P``.
    """
    if not in_ba(op, tol):
        raise NotInBA("operator does not admit a weighted adjoint")
    return Operator(adjoint_stack(op.ctx, op.t), op.ctx)


def reduce(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The r x r compression ``C`` of ``A^{1/2} T (A^{1/2})^+``, carrying all weighted data.

    The image is ``V_r C V_r^*`` and vanishes off ``range(A)``, so the
    classical norm / numerical radius / spectral radius of ``C`` equal the
    weighted ones of ``op``.  Requires weighted-seminorm boundedness, tested
    on every call; the result is the read-only ``op.reduced``, computed once.
    """
    if not in_ba_half(op, tol):
        raise NotABounded("operator is unbounded for the weighted seminorm")
    return op.reduced


def a_op_norm(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Weighted operator seminorm sup{||Tx||_A : ||x||_A = 1}.

    Computed as the largest singular value of the reduction.  A non-bounded
    operator yields ``math.inf`` plus an :class:`ABoundednessWarning` so that
    generator mistakes surface in reports instead of crashing them.
    """
    if not in_ba_half(op, tol):
        warnings.warn(
            "operator is unbounded for the weighted seminorm; reporting inf",
            ABoundednessWarning,
            stacklevel=2,
        )
        return math.inf
    return spectral_norm(op.reduced)
