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

Every objective here has period pi, because the operator at theta + pi
is the negative of the one at theta, so searches sample only [0, pi), at
the spacing ``2*pi / theta_samples`` or finer, and return the suprema alone.

Objectives receive an array of angles of shape (problems, points) and must
return values of the same shape.  The objectives here evaluate the grid in
slices of at most ``_GRID_SLICE`` problems, and their oracles the Newton
lanes of as many problems, so a search over the problems of many instances
holds no more of the pencil stack than a small one.

A search value is attained, so it is a lower end of the supremum, but a
grid can miss a narrow peak.  For numerical radii,
:func:`radius_certificate` supplies the upper end: one eigenvalue problem of
the quadratic pencil ``z^2 M - 2 r z I + M^*`` shows whether
``lambda_max(H(theta))`` reaches ``r`` anywhere on the circle, and two norms
(:func:`closed_form_certificate`) cover the disks, where it is nearly singular.
With them, a coarse grid only has to seed Newton (:func:`semihilbert.radii.validated_radius_batch`).
"""

from __future__ import annotations

import math

import numpy as np

from .config import ToleranceConfig

_PEAKS = 3
_EPS = np.finfo(float).eps
# slopes and curvatures within this multiple of eps * ||H|| are rounding, so a
# slope there marks a stationary point
_FLAT = 64.0 * _EPS
# a top eigenvalue closer than this (relative) to the next is treated as
# multiple, where the eigenvalue is not smooth and Newton's model is void
_GAP = math.sqrt(_EPS)
# problems per eigensolver call on the grid, and per call of the Newton oracle
# the lanes of as many problems (_PEAKS each), which bounds the pencil stack a
# lockstep search over many problems holds at once
_GRID_SLICE = 16
# the radius certificate: relative margin delta of r_hi = v (1 + delta), the
# fixed shift mu off the unit circle, the window around |z| = 1 and the
# largest condition number of A - mu B it accepts
_DELTA = 1e-9
_SHIFT = 0.37 + 0.21j
_WINDOW = 1e-7
_COND = 1e10


def sup_on_circle_batch(evaluate, count: int, tol: ToleranceConfig, derivatives) -> np.ndarray:
    """Suprema of ``count`` pi-periodic objectives over theta, as a float64
    array of shape (count,).

    ``evaluate(thetas)`` must accept shape (count, k) and return per-angle
    objective values of the same shape; it samples the grid, which covers
    [0, pi) with ``ceil(theta_samples / 2)`` points, never coarser than
    ``2pi / theta_samples``.

    ``derivatives(rows, thetas)`` takes flat arrays of problem indices and
    angles and returns the objective's values, slopes and curvatures there.
    A slope of exactly 0 marks a stationary point, where the refiner stops
    unless the curvature is positive; elsewhere a curvature that is not
    negative makes it bisect.  When the grid brackets are already no wider
    than ``theta_refine_tol``, the search ends at the grid.  Each value is
    the grid maximum unless a refined peak is strictly larger.
    """
    m = math.ceil(tol.theta_samples / 2)
    h = math.pi / m
    grid = np.arange(m) * h
    gvals = np.asarray(evaluate(np.broadcast_to(grid, (count, m))), dtype=float)
    best_idx = np.argmax(gvals, axis=1)
    best = gvals[np.arange(count), best_idx]
    if 2.0 * h <= tol.theta_refine_tol:
        return best

    # circular local maxima, the global best among them; the top _PEAKS slots
    # list the peaks first, so a problem with fewer peaks refines just those
    peaks = (gvals >= np.roll(gvals, 1, axis=1)) & (gvals >= np.roll(gvals, -1, axis=1))
    scored = np.where(peaks, gvals, -np.inf)
    top = np.argsort(scored, axis=1)[:, : -_PEAKS - 1 : -1]
    rows, cols = np.nonzero(np.take_along_axis(peaks, top, axis=1))
    refined = np.full(top.shape, -np.inf)
    refined[rows, cols] = _newton_refine(derivatives, rows, top[rows, cols] * h, h, tol.theta_refine_tol)
    # strictly greater, so an equal refined value (a zero of the other sign)
    # never replaces the grid maximum
    refined = refined.max(axis=1)
    return np.where(refined > best, refined, best)


def _newton_refine(derivatives, rows: np.ndarray, starts: np.ndarray, h: float, step_tol: float):
    """Safeguarded Newton ascent of problem ``rows[i]`` from ``starts[i]``,
    inside ``[starts[i] - h, starts[i] + h]``.

    Every lane stops at a stationary point that is not a strict minimum,
    after a Newton step of at most ``step_tol`` (whose end it still
    evaluates), or once its bracket is no wider than ``step_tol``.  From a
    strict minimum it bisects the left half of its bracket.  The step cap,
    twice the bisections from ``2h`` down to ``step_tol``, is a safety net.
    Returns the best value each lane evaluated.
    """
    size = starts.size
    best_val = np.full(size, -np.inf)
    # state of the live lanes only: lane index, problem, angle, bracket, and
    # whether the next evaluation is the lane's final one
    lane = np.arange(size)
    theta = starts
    lo, hi = theta - h, theta + h
    last = np.zeros(size, dtype=bool)
    for _ in range(2 * math.ceil(math.log2(2.0 * h / step_tol)) + 8):
        value, slope, curv = derivatives(rows, theta)
        gain = value > best_val[lane]
        best_val[lane[gain]] = value[gain]

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
    return best_val


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


def _grid_slices(count: int, size: int = _GRID_SLICE):
    """Consecutive row slices of at most ``size`` rows."""
    return (slice(i, i + size) for i in range(0, count, size))


def rotation_eig_derivatives(mats: np.ndarray):
    """Derivative oracle of :func:`rotation_eig_objective` for the refiner."""
    return _pencil_derivatives(*_hermitian_parts(mats))


def radius_certificate(mats: np.ndarray, values: np.ndarray) -> np.ndarray:
    """True where the numerical radius of ``mats[k]`` is below
    ``r_hi = values[k] (1 + delta)``, delta = 1e-9, as a bool array.

    For ``z = e^{i theta}``, ``lambda_max(H(theta)) = r`` exactly when
    ``det(z^2 M - 2 r z I + M^*) = 0`` (He & Watson, IMA J. Numer. Anal.
    1997; Mengi & Overton, IMA J. Numer. Anal. 2005).  With ``m = M / r_hi``
    that is the pencil ``A - z B``, ``A = [[0, I], [-m^*, 2I]]`` and
    ``B = [[I, 0], [0, m]]``, whose eigenvalues are ``z = mu + 1/nu`` for
    the eigenvalues nu of ``solve(A - mu B, B)`` at a fixed shift mu off the
    unit circle; nu = 0 is an infinite eigenvalue of a singular M, never
    near the circle.  A problem is certified when no z lies within 1e-7 of
    the unit circle and ``A - mu B`` has 1-norm condition number at most
    1e10; should the stacked solve find some ``A - mu B`` exactly singular,
    no problem of the stack is certified.  An exactly zero M is certified,
    its radius being 0.

    Soundness.  The angles where ``lambda_max(H(theta)) = r_hi`` are the
    unimodular z, so if none exists, ``lambda_max(H)`` stays on one side of
    ``r_hi`` over the whole circle.  It is below at one angle at least,
    because ``values`` come from a search: each is the largest computed
    objective value, which rounds the exact one by about eps ||M||, and
    ``delta v`` is far larger.  So the radius, the supremum of
    ``lambda_max``, is below ``r_hi``.  A value lowered by hand breaks that
    premise: on a square-zero M the pencil has no unimodular eigenvalue at
    any r below the radius, so such an r would be certified.  The check
    rests on backward-stable ``solve`` and ``eigvals``, on the window, which
    must exceed their errors, and on the condition bound, which keeps the
    error of the solve small; a numerical range that is a disk makes the
    pencil nearly singular at ``r_hi``: :func:`closed_form_certificate` covers it.
    """
    mats = np.asarray(mats)
    n = mats.shape[-1]
    r_hi = np.asarray(values, dtype=float) * (1.0 + _DELTA)
    certified = ~mats.any(axis=(-2, -1))
    live = np.flatnonzero(~certified & (r_hi > 0.0))
    if live.size == 0:
        return certified
    m = mats[live] / r_hi[live, None, None]
    order, diag, wide = 2 * n, np.arange(n), np.arange(2 * n)
    # A - mu B = [[-mu I, I], [-m^*, 2I - mu m]] and the right-hand sides
    # [B, I], in preallocated stacks: one solve gives C and (A - mu B)^{-1}
    shifted = np.zeros((len(live), order, order), dtype=complex)
    shifted[:, diag, diag] = -_SHIFT
    shifted[:, diag, n + diag] = 1.0
    shifted[:, n:, :n] = -np.conj(np.swapaxes(m, -1, -2))
    shifted[:, n:, n:] = -_SHIFT * m
    shifted[:, n + diag, n + diag] += 2.0
    rhs = np.zeros((len(live), order, 2 * order), dtype=complex)
    rhs[:, diag, diag] = 1.0
    rhs[:, n:, n:order] = m
    rhs[:, wide, order + wide] = 1.0
    try:
        solved = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:  # an exactly singular A - mu B certifies nothing
        return certified
    # the condition number in the 1-norm; NaN or inf fails the bound
    cond = np.linalg.norm(shifted, 1, axis=(-2, -1)) * np.linalg.norm(solved[..., order:], 1, axis=(-2, -1))
    well = cond <= _COND
    nu = np.linalg.eigvals(solved[well, :, :order])
    # |z| = |mu nu + 1| / |nu|, compared without dividing by nu
    size = np.abs(nu)
    near = np.abs(np.abs(_SHIFT * nu + 1.0) - size) <= _WINDOW * size
    certified[live[well]] = ~near.any(axis=-1)
    return certified


def closed_form_certificate(mats: np.ndarray, values: np.ndarray) -> np.ndarray:
    """True where ``u = sqrt(||M^* M + M M^*|| / 4 + ||M^2|| / 2)`` is at most
    ``values[k] (1 + delta / 2)``: one stacked ``eigvalsh`` and one ``svd``.

    Soundness.  ``omega(M)^2 <= ||M^* M + M M^*|| / 4 + omega(M^2) / 2``
    (Abu-Omar & Kittaneh, Rocky Mountain J. Math. 2015) and
    ``omega(M^2) <= ||M^2||``, so ``omega(M) <= u``; the computed u is off by
    O(n eps) relative, far below ``delta / 2``, so a certified radius is below
    ``values[k] (1 + delta)``.  u is the radius itself for normal M and for
    square-zero M, whose numerical range is a disk of radius ``||M|| / 2``
    (Haagerup & de la Harpe, Proc. AMS 1992): the problems the pencil rejects.
    """
    adj = np.conj(np.swapaxes(mats, -1, -2))
    herm = np.linalg.eigvalsh(mats @ adj + adj @ mats)[..., -1] / 4.0
    upper = np.sqrt(herm + np.linalg.svd(mats @ mats, compute_uv=False)[..., 0] / 2.0)
    return upper <= np.asarray(values) * (1.0 + _DELTA / 2.0)


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

    The lanes are evaluated in slices of at most ``_GRID_SLICE * _PEAKS``,
    the most that the problems of one grid slice refine, so only a slice's
    pencils are gathered at once; each lane's values do not depend on the
    slicing.
    """

    def derivatives(rows, thetas):
        out = np.empty((3, len(rows)))
        for s in _grid_slices(len(rows), _GRID_SLICE * _PEAKS):
            out[:, s] = _top_eig_derivatives(p[rows[s]], q[rows[s]], thetas[s])
        return out[0], out[1], out[2]

    return derivatives


def _top_eig_derivatives(p: np.ndarray, q: np.ndarray, thetas: np.ndarray):
    """Values, slopes and curvatures of :func:`_pencil_derivatives` for the
    gathered pencils of one slice of lanes."""
    cos = np.cos(thetas)[:, None, None]
    sin = np.sin(thetas)[:, None, None]
    w, u = np.linalg.eigh(cos * p - sin * q)
    # eigenpairs of sH in ascending order, so the top one is last
    upper = w[:, -1] >= -w[:, 0]
    w = np.where(upper[:, None], w, -w[:, ::-1])
    u = np.where(upper[:, None, None], u, u[:, :, ::-1])
    lam = w[:, -1]
    shifted = (-sin * p - cos * q) @ u[:, :, -1:]  # H' u
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
