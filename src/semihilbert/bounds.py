"""Upper bounds on the numerical radius of a block operator matrix.

One :class:`InstanceWork` per block matrix holds every intermediate that the
seven bounds (B1..B7) and the campaign's invariants read.  Its constructor
tests blockwise membership and reduces the (d, d) block grid in one
:func:`semihilbert.core.reduce_stack` call; everything else is read from
those r x r reductions R_ij and computed once, on first use.  The reduction
of the flattened operator against the lifted weight is, up to a permutation
similarity, the (d r) x (d r) grid of the R_ij, and the reduction of T_ij^#
is R_ij^*, so no lifted operator and no n x n adjoint is formed.  Two circle
searches give the radius of that grid and the (d, d) pair radii, whose
diagonal holds the diagonal-block radii.  The (j, i) pair objective is the
conjugate transpose of the (i, j) one at every angle, so only the d(d+1)/2
pairs i <= j are searched.  :func:`search_radii` runs both searches for many
works in lockstep, one search per matrix order, and a lone work runs them
through it too.  The row and real/imaginary-part terms are norms of the
reductions, so no n x n block product is formed either.  The bounds are its
methods; :meth:`InstanceWork.report` evaluates them against the radius and
turns the values into gaps and hold flags with a scale-aware slack.
:func:`evaluate_all` is the one-call entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .blockops import BlockMatrix, _require_members
from .config import DEFAULT_TOL, ToleranceConfig
from .core import reduce_stack, top_singular
from .radii import offdiag_sup_batch, validated_radius_batch

__all__ = ["BOUND_KEYS", "BoundReport", "InstanceWork", "evaluate_all", "search_radii"]

@dataclass
class BoundReport:
    """Per-instance record of the radius, every bound, gaps and verdicts.

    Built by :meth:`InstanceWork.report`.  ``timing`` holds incremental
    seconds per quantity, ``omega`` first and then each bound in
    ``BOUND_KEYS`` order.  A circle search may serve many instances in
    lockstep (:func:`search_radii`), so each instance is charged the search's
    seconds times its share of the search's problems: the flattened radius
    under ``omega``, the pair radii under ``B2_r2``, the first bound that
    reads them, leaving B3 about 0.  The reductions, computed when the work
    is built, are not timed.
    """

    instance_id: str
    omega: float
    bounds: dict[str, float]
    gaps: dict[str, float]
    holds: dict[str, bool]
    refinement_ok: bool
    timing: dict[str, float]

    @property
    def all_hold(self) -> bool:
        return all(self.holds.values())

    @property
    def min_gap(self) -> float:
        return min(self.gaps.values())


class InstanceWork:
    """Every per-instance intermediate of one block matrix, each computed once.

    Construction tests blockwise membership, raising :class:`BlockNotInBA`
    naming the first block without a weighted adjoint, then reduces the
    block grid: the one membership test and the one reduction of the
    instance.  The bound methods, :meth:`report` and the campaign's
    invariants read the cached properties, so asking for several of them
    pays for each intermediate once.
    """

    def __init__(self, bm: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL):
        self.bm = bm
        self.tol = tol
        self.ctx = bm.base_ctx
        _require_members(bm, tol)
        # blockwise reductions against the base weight, shape (d, d, r, r)
        self.reduced_blocks = reduce_stack(self.ctx, bm.blocks)
        # this work's share of the seconds of the searches that filled its radii
        self.search_seconds = {"omega": 0.0, "pairs": 0.0}

    @cached_property
    def flat_reduced(self) -> np.ndarray:
        """The (d r) x (d r) block-major grid of ``reduced_blocks``.

        The reduction of the flattened operator against the lifted weight
        orders its rows eigenvalue-major; this grid is the same matrix up to
        a permutation similarity, which keeps its norm, numerical radius and
        spectral radius.
        """
        d, r = self.bm.d, self.ctx.rank
        return self.reduced_blocks.transpose(0, 2, 1, 3).reshape(d * r, d * r)

    @cached_property
    def omega(self) -> float:
        """Weighted numerical radius of the flattened operator.

        Filled, with ``pair_omegas``, by :func:`search_radii` on this work alone
        unless a lockstep search over many works filled it first.
        """
        search_radii([self])
        return self.__dict__["omega"]

    @cached_property
    def norms(self) -> np.ndarray:
        """Blockwise weighted seminorms as a (d, d) array."""
        return top_singular(self.reduced_blocks)

    @cached_property
    def pair_omegas(self) -> np.ndarray:
        """Symmetric (d, d) matrix of pair radii omega_offdiag(T_ij, T_ji).

        For i = j this is sup_theta ||Re_A(e^{i theta} T_ii)||_A = omega_A(T_ii), so
        the diagonal radii come from the same search.  Each pair i <= j is
        searched once and read for both orders, so the matrix is symmetric by
        construction.  Filled, with ``omega``, by :func:`search_radii`.
        """
        search_radii([self])
        return self.__dict__["pair_omegas"]

    @property
    def diag_omegas(self) -> np.ndarray:
        """Numerical radii of the diagonal blocks: the diagonal of ``pair_omegas``."""
        return np.diagonal(self.pair_omegas)

    @cached_property
    def row_cross_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row seminorms of (sum_j T_ij T_ij^#)^{1/2} (all j, and j != i).

        The reduction sends ``T^#`` to ``R^*``, so each is the norm of the
        block row ``[R_i1 ... R_id]`` of reductions, the diagonal block zeroed
        for j != i.
        """
        d, r = self.bm.d, self.ctx.rank
        grids = np.stack([self.reduced_blocks, self.reduced_blocks])
        grids[1, np.arange(d), np.arange(d)] = 0.0
        full, without_diag = top_singular(np.swapaxes(grids, 2, 3).reshape(2, d, r, d * r))
        return full, without_diag

    @cached_property
    def re_im_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted seminorms of the real and imaginary parts of diagonal blocks,
        the norms of ``(R_ii + R_ii^*) / 2`` and ``(R_ii - R_ii^*) / 2i``."""
        d = self.bm.d
        diag = self.reduced_blocks[np.arange(d), np.arange(d)]
        diag_star = np.conj(np.swapaxes(diag, -1, -2))
        return top_singular((diag + diag_star) / 2.0), top_singular((diag - diag_star) / 2.0j)

    @cached_property
    def offdiag_sq_rows(self) -> np.ndarray:
        """Per-row sums of squared off-diagonal blockwise seminorms."""
        sq = self.norms**2
        np.fill_diagonal(sq, 0.0)
        return sq.sum(axis=1)

    def thf1(self) -> float:
        """Half-sum over rows of diagonal seminorm plus the norm of the block row."""
        full, _ = self.row_cross_norms
        return float(0.5 * (np.diagonal(self.norms) + full).sum())

    def r2(self) -> float:
        """Half-sum of diagonal radii plus the quarter penalty d + sum of squared seminorms."""
        d = self.bm.d
        return float(
            0.5 * self.diag_omegas.sum() + 0.25 * (d + (self.norms**2).sum())
        )

    def th2(self) -> float:
        """Numerical radius of the d x d comparison matrix ``S = pair_omegas``.

        The matrix is real and entrywise nonnegative, so ``|x* S x| <= |x|^T S |x|``
        and its numerical radius is exactly ``lambda_max((S + S^T) / 2)``.
        """
        s = self.pair_omegas
        return float(np.linalg.eigvalsh((s + s.T) / 2.0)[-1])

    def prior(self) -> float:
        """Earlier comparison-matrix bound with plain seminorms off the diagonal."""
        t = self.norms.copy()
        np.fill_diagonal(t, self.diag_omegas)
        return float(np.abs(np.linalg.eigvalsh(t + t.T)).max() / 2.0)

    def diag_offdiag(self) -> float:
        """Half-sum of diagonal radius plus root of its square and the row seminorms."""
        w = self.diag_omegas
        return float(0.5 * (w + np.sqrt(w**2 + self.offdiag_sq_rows)).sum())

    def re_im(self) -> float:
        """Half-sum of the quadrature combination of real/imaginary part row terms."""
        cross = self.offdiag_sq_rows
        re, im = self.re_im_norms
        lam = re + np.sqrt(re**2 + cross)
        mu = im + np.sqrt(im**2 + cross)
        return float(0.5 * np.sqrt(lam**2 + mu**2).sum())

    def maxdiag(self) -> float:
        """Largest diagonal radius plus half-sum of the off-diagonal block-row norms."""
        _, without_diag = self.row_cross_norms
        return float(self.diag_omegas.max() + 0.5 * without_diag.sum())

    def report(self, instance_id: str = "instance") -> BoundReport:
        """Radius, all seven bounds, gaps, hold flags, the B3-below-B7
        refinement verdict and timings."""
        omega = self.omega
        timing = {"omega": self.search_seconds["omega"]}
        bounds: dict[str, float] = {}
        for key, method in _BOUND_METHODS.items():
            t0 = time.perf_counter()
            bounds[key] = method(self)
            timing[key] = time.perf_counter() - t0
        timing["B2_r2"] += self.search_seconds["pairs"]

        slack = self.tol.cmp_atol * (1.0 + omega)
        return BoundReport(
            instance_id=instance_id,
            omega=omega,
            bounds=bounds,
            gaps={k: v - omega for k, v in bounds.items()},
            holds={k: omega <= v + slack for k, v in bounds.items()},
            refinement_ok=bounds["B3_th2"] <= bounds["B7_prior"] + self.tol.cmp_atol,
            timing=timing,
        )


_BOUND_METHODS = {
    "B1_thf1": InstanceWork.thf1,
    "B2_r2": InstanceWork.r2,
    "B3_th2": InstanceWork.th2,
    "B4_diag_offdiag": InstanceWork.diag_offdiag,
    "B5_re_im": InstanceWork.re_im,
    "B6_maxdiag": InstanceWork.maxdiag,
    "B7_prior": InstanceWork.prior,
}
BOUND_KEYS = tuple(_BOUND_METHODS)


def search_radii(works: Sequence[InstanceWork]) -> None:
    """Fill the ``omega`` and ``pair_omegas`` caches of ``works`` by lockstep searches.

    The flattened radii run as one search per distinct tolerance and order
    d r, the pair problems as one search per distinct tolerance and order r
    over the concatenated upper triangles, pair (i, j), i <= j in row-major
    order, on the reductions R_ij and R_ji^* (that of T_ji^#).  The (j, i)
    objective is the conjugate transpose of the (i, j) one, with the same
    norm, so each value fills both entries.  Nothing is padded, and lockstep
    searches are independent per problem, so every value is bitwise the one
    a search of that work alone gives.  A work is charged the seconds of
    each search in proportion to its problems, in ``search_seconds``.  Caches
    are written only once every search has succeeded, so a search that
    raises leaves every work as it was.
    """
    omegas, pairs = [0.0] * len(works), [None] * len(works)
    seconds = [{"omega": 0.0, "pairs": 0.0} for _ in works]
    for tol, group in _groups(works, lambda w: len(w.flat_reduced)):
        t0 = time.perf_counter()
        values = validated_radius_batch(np.stack([works[i].flat_reduced for i in group]), tol)
        share = (time.perf_counter() - t0) / len(group)
        for i, value in zip(group, values.tolist()):
            omegas[i], seconds[i]["omega"] = value, share
    for tol, group in _groups(works, lambda w: w.ctx.rank):
        t0 = time.perf_counter()
        grids = [works[i].reduced_blocks for i in group]
        uppers = [np.triu_indices(len(g)) for g in grids]
        lefts = np.concatenate([g[iu] for g, iu in zip(grids, uppers)])
        rights = np.concatenate([np.conj(g[iu[::-1]].transpose(0, 2, 1)) for g, iu in zip(grids, uppers)])
        values = offdiag_sup_batch(lefts, rights, tol)
        sizes = [len(iu[0]) for iu in uppers]
        for i, iu, flat in zip(group, uppers, np.split(values, np.cumsum(sizes)[:-1])):
            d = works[i].bm.d
            pairs[i] = np.empty((d, d))
            pairs[i][iu] = pairs[i][iu[::-1]] = flat
        per_problem = (time.perf_counter() - t0) / len(values)
        for i, size in zip(group, sizes):
            seconds[i]["pairs"] = per_problem * size
    for w, omega, pair, spent in zip(works, omegas, pairs, seconds):
        w.__dict__.update(omega=omega, pair_omegas=pair)
        w.search_seconds = spent


def _groups(works: Sequence[InstanceWork], order) -> list[tuple[ToleranceConfig, list[int]]]:
    """Indices of ``works`` grouped by tolerance and ``order(work)``, in order
    of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, w in enumerate(works):
        groups.setdefault((w.tol, order(w)), []).append(i)
    return [(tol, group) for (tol, _), group in groups.items()]


def evaluate_all(
    bm: BlockMatrix,
    tol: ToleranceConfig = DEFAULT_TOL,
    instance_id: str = "instance",
) -> BoundReport:
    """Reference radius, all seven bounds, gaps, hold flags and timings."""
    return InstanceWork(bm, tol).report(instance_id)
