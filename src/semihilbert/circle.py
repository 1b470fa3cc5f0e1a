"""Maximization of smooth objectives over the circle parameter theta.

Strategy: a uniform grid over one period of the objective locates candidate
peaks, then golden-section refinement polishes the best three peak
neighborhoods down to ``theta_refine_tol``.  After its first step the
refinement carries the surviving interior point and its value forward, so
each further step costs one objective evaluation per peak.  Many searches
with the same grid run in lockstep (the bracket widths shrink identically),
which keeps the per-call numpy overhead off the hot path of the verification
campaigns.

The period defaults to 2*pi.  Every radius objective here has period pi,
because the operator at theta + pi is the negative of the one at theta, so
radius searches sample only [0, pi), at the spacing ``2*pi / theta_samples``
or finer.

Objectives receive an array of angles of shape (problems, points) and must
return values of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig

TWO_PI = 2.0 * math.pi
_SHRINK = (math.sqrt(5.0) - 1.0) / 2.0  # bracket contraction per iteration
_PEAKS = 3


@dataclass(frozen=True)
class ThetaSearchResult:
    """Outcome of a circle-parameter supremum search.

    value          the supremum found (never below any sampled value)
    argmax_theta   maximizing angle in [0, period); ties go to the smaller angle
    samples        grid resolution: ``theta_samples`` points per full circle,
                   so a period-pi search samples half of them
    refined        whether golden-section refinement ran
    """

    value: float
    argmax_theta: float
    samples: int
    refined: bool


def sup_on_circle_batch(
    evaluate, count: int, tol: ToleranceConfig = DEFAULT_TOL, period: float = TWO_PI
):
    """Maximize ``count`` objectives over theta simultaneously.

    ``evaluate(thetas)`` must accept shape (count, k) and return per-angle
    objective values of the same shape.  The objectives must repeat with
    ``period``: the grid covers [0, period) with ``ceil(theta_samples *
    period / 2pi)`` points, never coarser than ``2pi / theta_samples``.
    """
    m = math.ceil(tol.theta_samples * (period / TWO_PI))
    h = period / m
    grid = np.arange(m) * h
    gvals = np.asarray(evaluate(np.broadcast_to(grid, (count, m))), dtype=float)

    # circular local maxima; problems with fewer than _PEAKS of them refine
    # their global best point several times, which is harmless
    peaks = (gvals >= np.roll(gvals, 1, axis=1)) & (gvals >= np.roll(gvals, -1, axis=1))
    scored = np.where(peaks, gvals, -np.inf)
    top = np.argsort(scored, axis=1)[:, : -_PEAKS - 1 : -1]
    best_idx = np.argmax(gvals, axis=1)
    top = np.where(np.take_along_axis(peaks, top, axis=1), top, best_idx[:, None])

    a = top * h - h
    b = top * h + h
    width = 2.0 * h
    refined = width > tol.theta_refine_tol
    if refined:
        c = b - _SHRINK * (b - a)
        d = a + _SHRINK * (b - a)
        vals = np.asarray(evaluate(np.concatenate([c, d], axis=1)), dtype=float)
        fc, fd = vals[:, :_PEAKS], vals[:, _PEAKS:]
        while True:
            keep_left = fc >= fd
            a = np.where(keep_left, a, c)
            b = np.where(keep_left, d, b)
            width *= _SHRINK
            if width <= tol.theta_refine_tol:
                break
            # the kept interior point already sits at the golden ratio of the
            # new bracket, so each step evaluates one new angle per peak
            x = np.where(keep_left, b - _SHRINK * (b - a), a + _SHRINK * (b - a))
            fx = np.asarray(evaluate(x), dtype=float)
            c, d = np.where(keep_left, x, d), np.where(keep_left, c, x)
            fc, fd = np.where(keep_left, fx, fd), np.where(keep_left, fc, fx)

    centers = (a + b) / 2.0
    if refined:
        fcenters = np.asarray(evaluate(centers), dtype=float)
    else:
        fcenters = np.take_along_axis(gvals, top, axis=1)

    results = []
    grid_theta = best_idx * h
    grid_val = gvals[np.arange(count), best_idx]
    for i in range(count):
        cand_theta = np.concatenate(([grid_theta[i]], np.mod(centers[i], period)))
        cand_val = np.concatenate(([grid_val[i]], fcenters[i]))
        order = np.lexsort((cand_theta, -cand_val))
        j = order[0]
        results.append(
            ThetaSearchResult(
                value=float(cand_val[j]),
                argmax_theta=float(cand_theta[j] % period),
                samples=tol.theta_samples,
                refined=bool(refined),
            )
        )
    return results


def sup_on_circle(evaluate, tol: ToleranceConfig = DEFAULT_TOL) -> ThetaSearchResult:
    """Single-objective variant of :func:`sup_on_circle_batch`."""
    return sup_on_circle_batch(evaluate, 1, tol)[0]


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
    mats = np.asarray(mats)
    herm = (mats + np.conj(np.swapaxes(mats, -1, -2))) / 2.0
    skew = (mats - np.conj(np.swapaxes(mats, -1, -2))) / 2.0j

    def evaluate(thetas):
        cos = np.cos(thetas)[..., None, None]
        sin = np.sin(thetas)[..., None, None]
        pencil = cos * herm[:, None] - sin * skew[:, None]
        eigs = np.linalg.eigvalsh(pencil)
        return np.maximum(eigs[..., -1], -eigs[..., 0])

    return evaluate


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
        combo = ph * left[:, None] + np.conj(ph) * right[:, None]
        gram = combo @ np.conj(np.swapaxes(combo, -1, -2))
        top = np.linalg.eigvalsh(gram)[..., -1]
        return np.sqrt(np.maximum(top, 0.0))

    return evaluate
