"""Classical and weighted numerical/spectral radii.

Weighted radii are computed on the reduction ``R``, the r x r compression of
``A^{1/2} T (A^{1/2})^+`` to ``range(A)``, ``r = rank(A)``, which carries its
norm, numerical radius and spectral radius (:func:`semihilbert.core.reduce`):
one circle search per radius, on r x r matrices.  The reduction sends the
weighted adjoint to the conjugate transpose, ``reduce(T^#) = R^*``, an
algebraic identity of the stacked primitives of :mod:`semihilbert.core`
that the test suite pins; so a pair radius reads ``R^*`` instead of reducing
an adjoint.  Stacked searches take reductions of one order; nothing is
padded.  The rotated-real-part supremum

    sup_theta || (e^{i theta} T + e^{-i theta} T^#) / 2 ||_A

stays available as an independent route, :func:`omega_real_part_sup`.

Every numerical radius, of a single operator, a plain matrix or a
flattened block matrix, goes through :func:`validated_radius_batch`: a
coarse search of 8 grid angles and Newton, then certificates that the
radius is below the value times ``1 + 1e-9``, a pencil solve per stack and
a closed form for the normal and square-zero reductions it rejects.  Only
the problems both reject are searched on the full grid of
``theta_samples``, with the values of that search alone.  The pair radii
keep the full grid.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .circle import (
    closed_form_certificate,
    phase_combo_derivatives,
    phase_combo_norm_objective,
    radius_certificate,
    rotation_eig_derivatives,
    rotation_eig_objective,
    sup_on_circle_batch,
)
from .config import DEFAULT_TOL, ToleranceConfig
from .core import Operator, _as_square_complex, a_adjoint, in_ba, reduce, spectral_norm
from .errors import DimensionMismatch, GelfandDivergence, NotInBA

__all__ = [
    "classical_numerical_radius",
    "classical_spectral_radius",
    "re_a",
    "im_a",
    "omega_real_part_sup",
    "a_numerical_radius",
    "a_spectral_radius",
    "gelfand_envelope",
    "omega_offdiag",
]

# computed eigenvalues of a defective matrix can sit O(sqrt(eps)) above the
# exact power-sequence envelope; the cross-check slack must absorb that
_DEFECTIVE_GUARD = 256.0 * math.sqrt(np.finfo(float).eps)
# theta_samples of the coarse search that a radius certificate checks: 8
# angles on [0, pi), which only have to seed Newton
_COARSE_SAMPLES = 16


def classical_numerical_radius(m, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Numerical radius of a plain complex matrix via the circle supremum; 0.0
    for empty input."""
    m = _as_square_complex(m)
    if m.size == 0:
        return 0.0
    return float(validated_radius_batch(m[None], tol)[0])


def classical_spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a plain complex matrix; 0.0 for empty input."""
    m = _as_square_complex(m)
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


def omega_real_part_sup(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Numerical radius as the supremum of rotated weighted real parts,
    ``sup_theta ||e^{i theta} R + e^{-i theta} reduce(T^#)|| / 2``.

    Valid for operators admitting a weighted adjoint; an independent route
    to the reduction-based computation, which the acceptance suite compares.
    """
    reduced = reduce(op, tol)
    sharp_reduced = reduce(a_adjoint(op, tol), tol)
    return float(offdiag_sup_batch(reduced[None], sharp_reduced[None], tol)[0])


def validated_radius_batch(reduced: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Numerical radii for a stack of already-reduced matrices, shape (count,).

    Each radius is the supremum of the largest |lambda| of the rotated
    Hermitian part H(t) = (e^{it} R + e^{-it} R^*) / 2, which equals the
    rotated-real-part objective because the reduction of T^# is R^*.  Since
    H(t + pi) = -H(t), the search covers [0, pi).  A coarse search of
    ``_COARSE_SAMPLES`` grid points per period seeds Newton, and
    :func:`semihilbert.circle.radius_certificate` checks its values, then
    :func:`semihilbert.circle.closed_form_certificate`, exact on normal and
    square-zero R, those it rejects.  Only the problems both reject are
    searched again, as one stack, on the full grid of ``tol.theta_samples``,
    so their values are those of a search without certificates.  A grid no
    finer than the coarse one is searched directly.
    """
    if tol.theta_samples <= _COARSE_SAMPLES:
        return _radius_search(reduced, tol)
    values = _radius_search(reduced, replace(tol, theta_samples=_COARSE_SAMPLES))
    redo = np.flatnonzero(~radius_certificate(reduced, values))
    if redo.size:
        redo = redo[~closed_form_certificate(reduced[redo], values[redo])]
    if redo.size:
        values[redo] = _radius_search(reduced[redo], tol)
    return values


def _radius_search(reduced: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Grid-and-Newton suprema of ||H(t)||_2 for a stack of reductions."""
    return sup_on_circle_batch(
        rotation_eig_objective(reduced), len(reduced), tol, rotation_eig_derivatives(reduced)
    )


def a_numerical_radius(op: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Weighted numerical radius sup{|x* A T x| : ||x||_A = 1}."""
    return float(validated_radius_batch(reduce(op, tol)[None], tol)[0])


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
    return reduced_spectral_radius(reduce(op, tol), tol)[0]


def reduced_spectral_radius(reduced: np.ndarray, tol: ToleranceConfig) -> tuple[float, np.ndarray]:
    """Spectral radius of an already-reduced matrix, with the power-sequence
    envelope ``||R^p||^{1/p}`` that cross-checks it.

    The envelope must stay above the eigenvalue-based value; if it dips
    below (beyond a slack covering defective-eigenvalue noise) a
    :class:`GelfandDivergence` is raised.  Its first entry is ``||R||``.
    """
    primary = float(np.abs(np.linalg.eigvals(reduced)).max()) if reduced.size else 0.0
    envelope = _gelfand_from_reduced(reduced, tol)
    scale = float(envelope[0])  # the envelope starts at ||R||
    slack = tol.cmp_atol * (1.0 + scale) + _DEFECTIVE_GUARD * scale
    if np.any(envelope < primary - slack):
        raise GelfandDivergence(
            f"power sequence {envelope.min():.6e} fell below spectral radius {primary:.6e}"
        )
    return primary, envelope


def offdiag_sup_batch(lefts: np.ndarray, rights: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Halved suprema of sigma_max(e^{i t} L + e^{-i t} R) for reduced stacks,
    shape (count,).

    The objective has period pi, so the search covers [0, pi).  The grid
    samples the cheaper Gram objective, and the refiner the Hermitian
    dilation, whose eigenvectors give the derivatives.  With ``R = L^*`` the
    value is the numerical radius of L: the bounds' diagonal-block radii.
    """
    sups = sup_on_circle_batch(
        phase_combo_norm_objective(lefts, rights), len(lefts), tol, phase_combo_derivatives(lefts, rights)
    )
    return sups / 2.0


def omega_offdiag(t: Operator, s: Operator, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Numerical radius of the 2x2 off-diagonal block arrangement of (t, s),
    (1/2) sup_theta ||e^{i theta} T + e^{-i theta} S^#||_A.

    Symmetric in its arguments; equals the lifted-block computation, which
    the verification harness checks independently.  Each operand must admit
    a weighted adjoint, which implies boundedness, so the reductions are
    taken unchecked.
    """
    if not t.ctx.same_weight(s.ctx):
        raise DimensionMismatch("paired operators must share a weight context")
    for side, op in (("left", t), ("right", s)):
        if not in_ba(op, tol):
            raise NotInBA(f"{side} operator does not admit a weighted adjoint")
    # the reduction of S^# is the conjugate transpose of that of S
    return float(offdiag_sup_batch(t.reduced[None], s.reduced.conj().T[None], tol)[0])
