"""Maximization of objectives over the circle parameter theta.

Strategy: a uniform grid over one period of the objective locates candidate
peaks, then safeguarded Newton steps polish the best three peaks inside
their grid brackets ``[theta - h, theta + h]``.  Newton needs the first and
second derivatives of the objective, which a derivative oracle supplies; the
objectives of this package are norms of Hermitian pencils
``H(theta) = cos(theta) P - sin(theta) Q``, whose oracle
(:func:`rotation_eig_derivatives`, :func:`phase_combo_derivatives`) reads
both derivatives of the top eigenvalue off one batched ``eigh``
(Lancaster, Numer. Math. 6, 1964).  Each step shrinks the bracket by the
sign of the slope, takes the Newton step when the objective is locally
concave and the step stays inside the bracket, and bisects otherwise, so it
converges quadratically at simple top eigenvalues and never leaves the
bracket.  Many searches with the same grid run in lockstep, and lanes that
have converged drop out of later steps.

The period defaults to 2*pi.  Every radius objective here has period pi,
because the operator at theta + pi is the negative of the one at theta, so
radius searches sample only [0, pi), at the spacing ``2*pi / theta_samples``
or finer.

Objectives receive an array of angles of shape (problems, points) and must
return values of the same shape.  The objectives here evaluate the grid in
slices of at most ``_GRID_SLICE`` problems, so a search over the problems of
many instances holds no more of the pencil stack than a small one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig

TWO_PI = 2.0 * math.pi
_PEAKS = 3
_EPS = np.finfo(float).eps
# slopes and curvatures within this multiple of eps * ||H|| are rounding, so a
# slope there marks a stationary point
_FLAT = 64.0 * _EPS
# a top eigenvalue closer than this (relative) to the next is treated as
# multiple, where the eigenvalue is not smooth and Newton's model is void
_GAP = math.sqrt(_EPS)
# problems per eigensolver call on the grid, which bounds the pencil stack a
# lockstep search over many problems holds at once
_GRID_SLICE = 16


@dataclass(frozen=True)
class ThetaSearchResult:
    """Outcome of a circle-parameter supremum search.

    value          the supremum found (never below any sampled value)
    argmax_theta   maximizing angle in [0, period); ties go to the smaller angle
    samples        grid resolution: ``theta_samples`` points per full circle,
                   so a period-pi search samples half of them
    refined        whether Newton refinement ran
    """

    value: float
    argmax_theta: float
    samples: int
    refined: bool


def sup_on_circle_batch(
    evaluate,
    count: int,
    tol: ToleranceConfig = DEFAULT_TOL,
    period: float = TWO_PI,
    derivatives=None,
):
    """Maximize ``count`` objectives over theta simultaneously.

    ``evaluate(thetas)`` must accept shape (count, k) and return per-angle
    objective values of the same shape; it samples the grid.  The objectives
    must repeat with ``period``: the grid covers [0, period) with
    ``ceil(theta_samples * period / 2pi)`` points, never coarser than
    ``2pi / theta_samples``.

    ``derivatives(rows, thetas)`` takes flat arrays of problem indices and
    angles and returns the objective's values, slopes and curvatures there.
    A slope of exactly 0 marks a stationary point, where the refiner stops
    unless the curvature is positive; elsewhere a curvature that is not
    negative makes it bisect.  Without an oracle, or when the grid brackets
    are already narrower than ``theta_refine_tol``, the search ends at the
    grid.
    """
    m = math.ceil(tol.theta_samples * (period / TWO_PI))
    h = period / m
    grid = np.arange(m) * h
    gvals = np.asarray(evaluate(np.broadcast_to(grid, (count, m))), dtype=float)

    # circular local maxima; problems with fewer than _PEAKS of them repeat
    # their global best point, which is refined once
    peaks = (gvals >= np.roll(gvals, 1, axis=1)) & (gvals >= np.roll(gvals, -1, axis=1))
    scored = np.where(peaks, gvals, -np.inf)
    top = np.argsort(scored, axis=1)[:, : -_PEAKS - 1 : -1]
    best_idx = np.argmax(gvals, axis=1)
    top = np.where(np.take_along_axis(peaks, top, axis=1), top, best_idx[:, None])

    thetas = top * h
    refined = derivatives is not None and 2.0 * h > tol.theta_refine_tol
    if refined:
        fresh = np.ones(top.shape, dtype=bool)
        for k in range(1, _PEAKS):
            fresh[:, k] = (top[:, k, None] != top[:, :k]).all(axis=1)
        rows, cols = np.nonzero(fresh)
        values = np.full(top.shape, -np.inf)
        thetas[rows, cols], values[rows, cols] = _newton_refine(
            derivatives, rows, thetas[rows, cols], h, tol.theta_refine_tol
        )
    else:
        values = np.take_along_axis(gvals, top, axis=1)

    # the best of the grid maximum and the refined peaks, ties to the smaller angle
    cand_theta = np.concatenate([(best_idx * h)[:, None], np.mod(thetas, period)], axis=1)
    cand_val = np.concatenate([gvals[np.arange(count), best_idx][:, None], values], axis=1)
    pick = np.lexsort((cand_theta, -cand_val))[:, 0]
    rows = np.arange(count)
    return [
        ThetaSearchResult(float(v), float(t), tol.theta_samples, refined)
        for v, t in zip(cand_val[rows, pick], cand_theta[rows, pick] % period)
    ]


def _newton_refine(derivatives, rows: np.ndarray, starts: np.ndarray, h: float, step_tol: float):
    """Safeguarded Newton ascent of problem ``rows[i]`` from ``starts[i]``,
    inside ``[starts[i] - h, starts[i] + h]``.

    Every lane stops at a stationary point that is not a strict minimum,
    after a Newton step of at most ``step_tol`` (whose end it still
    evaluates), or once its bracket is no wider than ``step_tol``.  From a
    strict minimum it bisects the left half of its bracket.  The step cap,
    twice the bisections from ``2h`` down to ``step_tol``, is a safety net.
    Returns the best angle and value each lane evaluated.
    """
    size = starts.size
    best_theta, best_val = starts.astype(float), np.full(size, -np.inf)
    # state of the live lanes only: lane index, problem, angle, bracket, and
    # whether the next evaluation is the lane's final one
    lane = np.arange(size)
    theta = best_theta.copy()
    lo, hi = theta - h, theta + h
    last = np.zeros(size, dtype=bool)
    for _ in range(2 * math.ceil(math.log2(2.0 * h / step_tol)) + 8):
        value, slope, curv = derivatives(rows, theta)
        gain = value > best_val[lane]
        best_val[lane[gain]], best_theta[lane[gain]] = value[gain], theta[gain]

        stationary = slope == 0.0
        newton = curv < 0.0
        step = np.divide(-slope, curv, out=np.zeros_like(slope), where=newton)
        converged = newton & (np.abs(step) <= step_tol)
        lo = np.where(slope > 0.0, theta, lo)
        hi = np.where((slope < 0.0) | (stationary & (curv > 0.0)), theta, hi)
        cand = theta + step
        inside = converged | (newton & (cand > lo) & (cand < hi))
        theta = np.where(inside, cand, (lo + hi) / 2.0)

        keep = ~(last | (stationary & (curv <= 0.0)))
        last = converged | (hi - lo <= step_tol)
        if not keep.all():
            if not keep.any():
                break
            lane, rows, theta, lo, hi, last = (x[keep] for x in (lane, rows, theta, lo, hi, last))
    return best_theta, best_val


def sup_on_circle(
    evaluate, tol: ToleranceConfig = DEFAULT_TOL, derivatives=None
) -> ThetaSearchResult:
    """Single-objective variant of :func:`sup_on_circle_batch`."""
    return sup_on_circle_batch(evaluate, 1, tol, derivatives=derivatives)[0]


def _hermitian_parts(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian and skew parts ``(M + M*) / 2`` and ``(M - M*) / 2i``."""
    mats = np.asarray(mats)
    adj = np.conj(np.swapaxes(mats, -1, -2))
    return (mats + adj) / 2.0, (mats - adj) / 2.0j


def rotation_eig_objective(mats: np.ndarray):
    """Objective ||H(t)||_2 = max(lambda_max, -lambda_min) of the rotated
    Hermitian part H(t) = (e^{i t} M + e^{-i t} M*) / 2, for stacked matrices.

    H(t + pi) = -H(t), so the objective has period pi, and its supremum over
    [0, pi) is the supremum of lambda_max(H(t)) over the whole circle, which
    is the numerical radius of M.  The rotated Hermitian part is the
    cosine/sine pencil of the Hermitian and skew parts of M, so the whole grid
    evaluates as one batched eigvalsh, whose extreme eigenvalues give both
    ends of the spectrum.
    """
    herm, skew = _hermitian_parts(mats)

    def evaluate(thetas):
        cos = np.cos(thetas)[..., None, None]
        sin = np.sin(thetas)[..., None, None]
        out = np.empty(np.shape(thetas))
        for s in _grid_slices(len(herm)):
            eigs = np.linalg.eigvalsh(cos[s] * herm[s, None] - sin[s] * skew[s, None])
            out[s] = np.maximum(eigs[..., -1], -eigs[..., 0])
        return out

    return evaluate


def _grid_slices(count: int):
    """Consecutive row slices of at most ``_GRID_SLICE`` problems."""
    return (slice(i, i + _GRID_SLICE) for i in range(0, count, _GRID_SLICE))


def rotation_eig_derivatives(mats: np.ndarray):
    """Derivative oracle of :func:`rotation_eig_objective` for the refiner."""
    return _pencil_derivatives(*_hermitian_parts(mats))


def phase_combo_norm_objective(left: np.ndarray, right: np.ndarray):
    """Objective sigma_max(e^{i t} L + e^{-i t} R) for stacked matrix pairs.

    The combination at t + pi is the negative of the one at t, so the
    objective has period pi.  The spectral norm is evaluated as the root of the largest Gram
    eigenvalue, which is markedly faster than batched SVD at these sizes;
    the clamp guards against eigensolver noise on vanishing combinations.
    """
    left = np.asarray(left)
    right = np.asarray(right)

    def evaluate(thetas):
        ph = np.exp(1j * thetas)[..., None, None]
        top = np.empty(np.shape(thetas))
        for s in _grid_slices(len(left)):
            top[s] = _top_gram_eigenvalue(ph[s] * left[s, None] + np.conj(ph[s]) * right[s, None])
        return np.sqrt(np.maximum(top, 0.0))

    return evaluate


def _top_gram_eigenvalue(combo: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of ``C C*`` for each matrix C of a stack; a function
    of its own so that a slice's temporaries are freed before the next slice."""
    return np.linalg.eigvalsh(combo @ np.conj(np.swapaxes(combo, -1, -2)))[..., -1]


def phase_combo_derivatives(left: np.ndarray, right: np.ndarray):
    """Derivative oracle of :func:`phase_combo_norm_objective` for the refiner.

    sigma_max(C) is the norm of the Hermitian dilation D(C) = [[0, C], [C*, 0]],
    and D(e^{i t} L + e^{-i t} R) = cos(t) D(L + R) + sin(t) D(i (L - R)), a
    pencil of the same form as the rotated Hermitian part.
    """
    left = np.asarray(left)
    right = np.asarray(right)
    return _pencil_derivatives(_dilation(left + right), -_dilation(1j * (left - right)))


def _dilation(c: np.ndarray) -> np.ndarray:
    """Hermitian dilations ``[[0, C], [C*, 0]]`` of a stack of square matrices."""
    zero = np.zeros_like(c)
    adj = np.conj(np.swapaxes(c, -1, -2))
    return np.concatenate(
        [np.concatenate([zero, c], axis=-1), np.concatenate([adj, zero], axis=-1)], axis=-2
    )


def _pencil_derivatives(p: np.ndarray, q: np.ndarray):
    """Derivative oracle of theta -> ||H(theta)||_2, H = cos(theta) P - sin(theta) Q.

    P and Q are stacks of Hermitian matrices.  The norm is the top eigenvalue
    lambda of sH, the sign s picking the larger end of the spectrum as
    :func:`rotation_eig_objective` does.  With H' = -sin(theta) P - cos(theta) Q,
    H'' = -H and u_k the eigenvectors of H,

        lambda'  = u^* sH' u,
        lambda'' = -lambda + 2 sum_{k != top} |u_k^* H' u|^2 / (lambda - s lambda_k).

    Slopes and curvatures within ``64 eps lambda`` of 0 are rounding and are
    returned as exactly 0, so a level stretch (a disk-shaped numerical range)
    is a stationary point where the refiner stops.  Where the top eigenvalue
    is not separated from the next by ``sqrt(eps) lambda`` the curvature is
    returned as 0 too, so the refiner bisects.
    """

    def derivatives(rows, thetas):
        cos = np.cos(thetas)[:, None, None]
        sin = np.sin(thetas)[:, None, None]
        pr, qr = p[rows], q[rows]
        w, u = np.linalg.eigh(cos * pr - sin * qr)
        # eigenpairs of sH in ascending order, so the top one is last
        upper = w[:, -1] >= -w[:, 0]
        w = np.where(upper[:, None], w, -w[:, ::-1])
        u = np.where(upper[:, None, None], u, u[:, :, ::-1])
        lam = w[:, -1]
        shifted = (-sin * pr - cos * qr) @ u[:, :, -1:]  # H' u
        coupling = (np.conj(np.swapaxes(u, -1, -2)) @ shifted)[..., 0]  # u_k^* H' u
        slope = np.where(upper, 1.0, -1.0) * coupling[:, -1].real
        dist = lam[:, None] - w[:, :-1]
        floor = _GAP * lam
        apart = dist > floor[:, None]
        terms = np.divide(np.abs(coupling[:, :-1]) ** 2, dist, out=np.zeros_like(dist), where=apart)
        curv = 2.0 * terms.sum(axis=-1) - lam
        flat = _FLAT * lam
        curv = np.where(apart.all(axis=-1) & (np.abs(curv) > flat), curv, 0.0)
        slope = np.where(np.abs(slope) <= flat, 0.0, slope)
        return lam, slope, curv

    return derivatives
