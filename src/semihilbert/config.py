"""Numerical tolerance settings used throughout the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Tolerances and search resolutions for all numerical predicates.

    rank_rtol         relative eigenvalue cutoff: eigenvalues of the weight
                      matrix below rank_rtol * lambda_max are treated as
                      exactly zero
    cmp_atol          slack used by inequality and membership checks,
                      always scaled by the magnitude of the operands
    theta_samples     grid resolution of the circle-parameter suprema: the
                      grid spacing is at most 2*pi / theta_samples, so a
                      full-circle search samples theta_samples points and
                      a pi-periodic objective (every radius) samples [0, pi)
                      with half of them (rounded up)
    theta_refine_tol  bracket width at which golden-section refinement stops
    gelfand_max_power largest operator power used by the spectral-radius
                      cross-check
    """

    rank_rtol: float = 1e-10
    cmp_atol: float = 1e-8
    theta_samples: int = 1024
    theta_refine_tol: float = 1e-12
    gelfand_max_power: int = 64

    def __post_init__(self):
        if self.rank_rtol <= 0 or self.cmp_atol <= 0 or self.theta_refine_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.theta_samples < 8:
            raise ValueError("theta_samples must be at least 8")
        if self.gelfand_max_power < 1:
            raise ValueError("gelfand_max_power must be at least 1")


DEFAULT_TOL = ToleranceConfig()
