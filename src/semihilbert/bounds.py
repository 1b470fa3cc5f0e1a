"""Upper bounds on the numerical radius of a block operator matrix.

One :class:`InstanceWork` per block matrix holds every intermediate that the
seven bounds (B1..B7) and the campaign's invariants read, each computed once
on first use: the blockwise adjoints, reductions and seminorms (the stacked
primitives of :mod:`semihilbert.core` applied to the block grid), the
(d, d) pair radii, whose diagonal holds the diagonal-block radii, and the
flattened operator's reduction, adjoint and radius: two circle searches.
The bounds are its methods; :meth:`InstanceWork.report` evaluates them
against the radius and turns the values into gaps and hold flags with a
scale-aware slack.  :func:`evaluate_all` is the one-call entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockops import BlockMatrix, _require_members, flatten
from .config import DEFAULT_TOL, ToleranceConfig
from .core import Operator, a_adjoint, adjoint_stack, reduce, reduce_stack, top_singular
from .errors import RouteDisagreement
from .radii import check_adjoint_identity, offdiag_sup_batch, validated_radius_batch

__all__ = ["BOUND_KEYS", "BoundReport", "InstanceWork", "evaluate_all"]

BOUND_KEYS = (
    "B1_thf1",
    "B2_r2",
    "B3_th2",
    "B4_diag_offdiag",
    "B5_re_im",
    "B6_maxdiag",
    "B7_prior",
)


@dataclass
class BoundReport:
    """Per-instance record of the radius, every bound, gaps and verdicts.

    Built by :meth:`InstanceWork.report`.  ``timing`` holds incremental
    seconds per quantity, ``omega`` first and then each bound in
    ``BOUND_KEYS`` order; shared intermediates are charged to the first bound
    that needs them: the pair search to B2, leaving B3 about 0.
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

    Construction tests blockwise membership and raises :class:`BlockNotInBA`
    naming the first block without a weighted adjoint.  The bound methods,
    :meth:`report` and the campaign's invariants read the cached properties,
    so asking for several of them pays for each intermediate once.
    """

    def __init__(self, bm: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL):
        self.bm = bm
        self.tol = tol
        self.ctx = bm.base_ctx
        _require_members(bm, tol)

    @cached_property
    def flat(self) -> Operator:
        return flatten(self.bm)

    @cached_property
    def flat_reduced(self) -> np.ndarray:
        """Reduction of the flattened operator against the lifted weight."""
        return reduce(self.flat, self.tol)

    @cached_property
    def flat_sharp(self) -> Operator:
        """Weighted adjoint of the flattened operator: the lifted route to ``sharps``."""
        return a_adjoint(self.flat, self.tol)

    @cached_property
    def omega(self) -> float:
        """Weighted numerical radius of the flattened operator, adjoint identity checked."""
        return validated_radius_batch(
            self.flat_reduced[None], reduce(self.flat_sharp, self.tol)[None], self.tol
        )[0]

    @cached_property
    def sharps(self) -> np.ndarray:
        """sharps[i, j] is the weighted adjoint of block (i, j)."""
        return adjoint_stack(self.ctx, self.bm.blocks)

    @cached_property
    def reduced_blocks(self) -> np.ndarray:
        return reduce_stack(self.ctx, self.bm.blocks)

    @cached_property
    def reduced_sharps(self) -> np.ndarray:
        return reduce_stack(self.ctx, self.sharps)

    @cached_property
    def norms(self) -> np.ndarray:
        """Blockwise weighted seminorms as a (d, d) array."""
        return top_singular(self.reduced_blocks)

    @cached_property
    def pair_omegas(self) -> np.ndarray:
        """Matrix of pair radii omega_offdiag(T_ij, T_ji) over all d^2 ordered pairs.

        For i = j this is sup_theta ||Re_A(e^{i theta} T_ii)||_A = omega_A(T_ii), so
        the diagonal radii come from the same search.  The adjoint identity is
        checked on every block and the exchange symmetry asserted, not assumed.
        """
        d, n = self.bm.d, self.bm.n
        lefts = self.reduced_blocks.reshape(d * d, n, n)
        check_adjoint_identity(lefts, self.reduced_sharps.reshape(d * d, n, n), self.tol)
        rights = np.swapaxes(self.reduced_sharps, 0, 1).reshape(d * d, n, n)
        out = np.reshape(offdiag_sup_batch(lefts, rights, self.tol), (d, d))
        asym = np.abs(out - out.T).max()
        if asym > 1e-10 * (1.0 + out.max() + top_singular(self.bm.blocks).max()):
            raise RouteDisagreement(f"pair radii are asymmetric by {asym:.3e}")
        return out

    @property
    def diag_omegas(self) -> np.ndarray:
        """Numerical radii of the diagonal blocks: the diagonal of ``pair_omegas``."""
        return np.diagonal(self.pair_omegas)

    @cached_property
    def row_cross_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row seminorms of sum_j T_ij T_ij^# (all j, and j != i)."""
        d = self.bm.d
        products = self.bm.blocks @ self.sharps  # (d, d, n, n): T_ij T_ij^#
        full = products.sum(axis=1)
        without_diag = full - products[np.arange(d), np.arange(d)]
        sig = top_singular(reduce_stack(self.ctx, np.concatenate([full, without_diag])))
        return sig[:d], sig[d:]

    @cached_property
    def re_im_norms(self) -> tuple[np.ndarray, np.ndarray]:
        """Weighted seminorms of the real and imaginary parts of diagonal blocks."""
        d = self.bm.d
        diag = self.bm.blocks[np.arange(d), np.arange(d)]
        diag_sharp = self.sharps[np.arange(d), np.arange(d)]
        re = (diag + diag_sharp) / 2.0
        im = (diag - diag_sharp) / 2.0j
        sig = top_singular(reduce_stack(self.ctx, np.concatenate([re, im])))
        return sig[:d], sig[d:]

    @cached_property
    def offdiag_sq_rows(self) -> np.ndarray:
        """Per-row sums of squared off-diagonal blockwise seminorms."""
        sq = self.norms**2
        np.fill_diagonal(sq, 0.0)
        return sq.sum(axis=1)

    def thf1(self) -> float:
        """Half-sum over rows of diagonal seminorm plus root of the row cross term."""
        full, _ = self.row_cross_norms
        diag_norms = np.diagonal(self.norms)
        return float(0.5 * (diag_norms + np.sqrt(full)).sum())

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
        """Largest diagonal radius plus half-sum of off-diagonal row cross terms."""
        _, without_diag = self.row_cross_norms
        return float(self.diag_omegas.max() + 0.5 * np.sqrt(without_diag).sum())

    def report(self, instance_id: str = "instance") -> BoundReport:
        """Radius, all seven bounds, gaps, hold flags, the B3-below-B7
        refinement verdict and timings."""
        t0 = time.perf_counter()
        omega = self.omega
        timing = {"omega": time.perf_counter() - t0}
        bounds: dict[str, float] = {}
        for key, method in _BOUND_METHODS.items():
            t0 = time.perf_counter()
            bounds[key] = method(self)
            timing[key] = time.perf_counter() - t0

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


def evaluate_all(
    bm: BlockMatrix,
    tol: ToleranceConfig = DEFAULT_TOL,
    instance_id: str = "instance",
) -> BoundReport:
    """Reference radius, all seven bounds, gaps, hold flags and timings."""
    return InstanceWork(bm, tol).report(instance_id)
