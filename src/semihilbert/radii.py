"""Classical and weighted numerical/spectral radii.

Weighted radii are computed on the reduction ``R``, the r x r compression of
``A^{1/2} T (A^{1/2})^+`` to ``range(A)``, ``r = rank(A)``, which carries its
norm, numerical radius and spectral radius (:func:`semihilbert.core.reduce`):
one circle search per radius, on r x r matrices.  Batches zero-pad reductions
of different orders, which keeps all three.  The reduction sends the weighted
adjoint to the conjugate transpose, so when an operator admits a weighted
adjoint the identity ``reduce(T^#) = R^*`` is checked directly; a residual
beyond slack signals a membership or implementation bug and raises
:class:`RouteDisagreement`.  The rotated-real-part supremum

    sup_theta || (e^{i theta} T + e^{-i theta} T^#) / 2 ||_A

stays available as an independent route, :func:`omega_real_part_sup`.

Every searched objective has period pi (the operator at theta + pi is the
negative of the one at theta), so every search samples only [0, pi): the
numerical radius maximizes ``||H(theta)||_2``, the largest |lambda| of the
rotated Hermitian part, which over [0, pi) reaches the full-circle
supremum of ``lambda_max``.
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import Sequence

import numpy as np

from .circle import (
    ThetaSearchResult,
    phase_combo_derivatives,
    phase_combo_norm_objective,
    rotation_eig_derivatives,
    rotation_eig_objective,
    sup_on_circle_batch,
)
from .config import DEFAULT_TOL, ToleranceConfig
from .core import Operator, a_adjoint, in_ba, reduce, spectral_norm, top_singular
from .errors import DimensionMismatch, GelfandDivergence, NotInBA, RouteDisagreement

__all__ = [
    "classical_numerical_radius",
    "classical_spectral_radius",
    "re_a",
    "im_a",
    "omega_real_part_sup",
    "a_numerical_radius",
    "a_numerical_radius_many",
    "a_spectral_radius",
    "gelfand_envelope",
    "omega_offdiag",
    "omega_offdiag_many",
]

# computed eigenvalues of a defective matrix can sit O(sqrt(eps)) above the
# exact power-sequence envelope; the cross-check slack must absorb that
_DEFECTIVE_GUARD = 256.0 * math.sqrt(np.finfo(float).eps)


def _rotation_search(mats: np.ndarray, tol: ToleranceConfig) -> list[ThetaSearchResult]:
    """Suprema of ||H(t)||_2 over [0, pi) for a stack, H(t) the rotated Hermitian part."""
    return sup_on_circle_batch(
        rotation_eig_objective(mats), len(mats), tol, math.pi, rotation_eig_derivatives(mats)
    )


def _phase_combo_search(
    lefts: np.ndarray, rights: np.ndarray, tol: ToleranceConfig
) -> list[ThetaSearchResult]:
    """Suprema of sigma_max(e^{i t} L + e^{-i t} R) over [0, pi) for stacked pairs.

    The grid samples the cheaper Gram objective, and the refiner the
    Hermitian dilation, whose eigenvectors give the derivatives.
    """
    return sup_on_circle_batch(
        phase_combo_norm_objective(lefts, rights),
        len(lefts),
        tol,
        math.pi,
        phase_combo_derivatives(lefts, rights),
    )


def classical_numerical_radius(m, tol: ToleranceConfig = DEFAULT_TOL) -> ThetaSearchResult:
    """Numerical radius of a plain complex matrix via the circle supremum."""
    mats = np.asarray(m, dtype=np.complex128)[None]
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {mats.shape[1:]}")
    return _rotation_search(mats, tol)[0]


def classical_spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a plain complex matrix."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())


def re_a(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> Operator:
    """Weighted real part (T + T^#) / 2; weighted-selfadjoint by construction."""
    sharp = a_adjoint(op, tol)
    return Operator((op.t + sharp.t) / 2.0, op.ctx)


def im_a(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> Operator:
    """Weighted imaginary part (T - T^#) / 2i; weighted-selfadjoint by construction."""
    sharp = a_adjoint(op, tol)
    return Operator((op.t - sharp.t) / 2.0j, op.ctx)


def omega_real_part_sup(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> ThetaSearchResult:
    """Numerical radius as the supremum of rotated weighted real parts.

    Valid for operators admitting a weighted adjoint; an independent route
    to the reduction-based computation, which the acceptance suite compares.
    """
    reduced = reduce(op, tol)
    sharp_reduced = reduce(a_adjoint(op, tol), tol)
    return _phase_combo_search(reduced[None] / 2.0, sharp_reduced[None] / 2.0, tol)[0]


def validated_radius_batch(
    reduced: np.ndarray, sharp_reduced: np.ndarray | None, tol: ToleranceConfig
) -> list[float]:
    """Numerical radii for stacks of already-reduced matrices.

    ``reduced`` holds the reductions R of the operators, ``sharp_reduced``
    the reductions S of their weighted adjoints (or None to skip the check).
    Every pair must satisfy ``||S - R^*|| <= cmp_atol (1 + ||R||)``, or
    :class:`RouteDisagreement` is raised.  Under the identity the
    rotated-real-part objective ``sigma_max(e^{it} R + e^{-it} S) / 2`` equals
    the searched objective, the largest |lambda| of the rotated Hermitian part
    H(t) (sigma_max of a Hermitian matrix is its largest |lambda|), so the
    check replaces a second search over the former.  Since H(t + pi) = -H(t),
    the search covers [0, pi).
    """
    if sharp_reduced is not None:
        check_adjoint_identity(reduced, sharp_reduced, tol)
    return [r.value for r in _rotation_search(reduced, tol)]


def check_adjoint_identity(
    reduced: np.ndarray, sharp_reduced: np.ndarray, tol: ToleranceConfig
) -> None:
    """Raise :class:`RouteDisagreement` unless ``sharp_reduced = reduced^*`` pairwise."""
    diff = sharp_reduced - np.conj(np.swapaxes(reduced, -1, -2))
    resid, scale = top_singular(np.stack([diff, reduced]))
    bad = np.flatnonzero(resid > tol.cmp_atol * (1.0 + scale))
    if bad.size:
        k = bad[0]
        raise RouteDisagreement(
            f"reduced adjoint differs from the conjugate transpose of the "
            f"reduction by {resid[k]:.3e} (norm {scale[k]:.3e}) at index {k}"
        )


def _padded_stack(mats: Sequence[np.ndarray], order: int = 0) -> np.ndarray:
    """Stack square matrices zero-padded to the largest order, at least ``order``.

    A direct sum with a zero block keeps sigma_max, the numerical radius and
    the pair objective, so a padded batch searches as its members would.
    """
    order = max(order, *(len(m) for m in mats))
    return np.stack([np.pad(m, (0, order - len(m))) for m in mats])


def a_numerical_radius_many(
    ops: Sequence[Operator], tol: ToleranceConfig = DEFAULT_TOL
) -> list[float]:
    """Weighted numerical radii of same-shaped operators, searched in lockstep.

    Every operator that admits a weighted adjoint has the adjoint identity of
    its reduction checked.
    """
    if not ops:
        return []
    mats = _padded_stack([reduce(op, tol) for op in ops])
    sharps = {}  # index -> reduced weighted adjoint, for operators that admit one
    for i, op in enumerate(ops):
        with suppress(NotInBA):
            sharps[i] = reduce(a_adjoint(op, tol), tol)
    if sharps:
        check_adjoint_identity(
            mats[list(sharps)], _padded_stack(list(sharps.values()), mats.shape[-1]), tol
        )
    return validated_radius_batch(mats, None, tol)


def a_numerical_radius(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Weighted numerical radius sup{|x* A T x| : ||x||_A = 1}."""
    return a_numerical_radius_many([op], tol)[0]


def gelfand_envelope(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Power-sequence bounds ||T^n||_A^{1/n} for n = 1, 2, 4, ... max_power.

    Each entry dominates the weighted spectral radius and the sequence is
    nonincreasing; computed on the reduction with repeated squaring.
    """
    reduced = reduce(op, tol)
    return _gelfand_from_reduced(reduced, tol)


def _gelfand_from_reduced(reduced: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    count = tol.gelfand_max_power.bit_length()
    top = spectral_norm(reduced)
    if top == 0.0:
        return np.zeros(count)
    # m holds (R / top)^power divided by its norm and log_norm the log of that
    # norm, so the powers of a nearly nilpotent R cannot underflow to zero
    m = reduced / top
    vals = [top]
    log_norm = 0.0
    power = 1
    while power * 2 <= tol.gelfand_max_power:
        m = m @ m
        power *= 2
        size = spectral_norm(m)
        if size == 0.0:
            break
        m /= size
        log_norm = 2.0 * log_norm + math.log(size)
        vals.append(top * math.exp(log_norm / power))
    return np.pad(vals, (0, count - len(vals)))


def a_spectral_radius(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Weighted spectral radius, computed on the reduction."""
    return reduced_spectral_radius(reduce(op, tol), tol)


def reduced_spectral_radius(reduced: np.ndarray, tol: ToleranceConfig) -> float:
    """Spectral radius of an already-reduced matrix.

    The power-sequence envelope must stay above the eigenvalue-based value;
    if it dips below (beyond a slack covering defective-eigenvalue noise)
    a :class:`GelfandDivergence` is raised.
    """
    primary = float(np.abs(np.linalg.eigvals(reduced)).max()) if reduced.size else 0.0
    envelope = _gelfand_from_reduced(reduced, tol)
    scale = float(envelope[0])  # the envelope starts at ||R||
    slack = tol.cmp_atol * (1.0 + scale) + _DEFECTIVE_GUARD * scale
    if np.any(envelope < primary - slack):
        raise GelfandDivergence(
            f"power sequence {envelope.min():.6e} fell below spectral radius {primary:.6e}"
        )
    return primary


def offdiag_sup_batch(
    lefts: np.ndarray, rights: np.ndarray, tol: ToleranceConfig
) -> list[float]:
    """Halved suprema of sigma_max(e^{i t} L + e^{-i t} R) for reduced stacks.

    The objective has period pi, so the search covers [0, pi).  With ``R = L^*``
    the value is the numerical radius of L: the bounds' diagonal-block radii.
    """
    return [r.value / 2.0 for r in _phase_combo_search(lefts, rights, tol)]


def omega_offdiag_many(
    pairs: Sequence[tuple[Operator, Operator]], tol: ToleranceConfig = DEFAULT_TOL
) -> list[float]:
    """Off-diagonal radii (1/2) sup_theta ||e^{i t} T + e^{-i t} S^#||_A in lockstep."""
    if not pairs:
        return []
    for t, s in pairs:
        if not t.ctx.same_weight(s.ctx):
            raise DimensionMismatch("paired operators must share a weight context")
        if not in_ba(t, tol):
            raise NotInBA("left operator does not admit a weighted adjoint")
    lefts = _padded_stack([reduce(t, tol) for t, _ in pairs])
    rights = _padded_stack([reduce(a_adjoint(s, tol), tol) for _, s in pairs])
    return offdiag_sup_batch(lefts, rights, tol)


def omega_offdiag(t: Operator, s: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Numerical radius of the 2x2 off-diagonal block arrangement of (t, s).

    Symmetric in its arguments; equals the lifted-block computation, which
    the verification harness checks independently.
    """
    return omega_offdiag_many([(t, s)], tol)[0]
