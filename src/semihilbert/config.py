"""Numerical tolerance settings used throughout the package."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real


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
    theta_refine_tol  angle resolution of the Newton refinement: it stops
                      after a step no longer than this, or once the
                      bracket around the peak is no wider
    gelfand_max_power largest operator power used by the spectral-radius
                      cross-check
    """

    rank_rtol: float = 1e-10
    cmp_atol: float = 1e-8
    theta_samples: int = 1024
    theta_refine_tol: float = 1e-12
    gelfand_max_power: int = 64

    def __post_init__(self):
        # a NaN slack would make every "residual > slack" comparison False
        for name in ("rank_rtol", "cmp_atol", "theta_refine_tol"):
            require_positive(self, name)
        require_integer(self, "theta_samples", 8)
        require_integer(self, "gelfand_max_power", 1)


def require_positive(config, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless that field of ``config`` is a
    finite positive number."""
    value = getattr(config, name)
    if not (isinstance(value, Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def require_integer(config, name: str, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless that field of ``config`` is an
    integer, not a bool, of at least ``least``."""
    value = getattr(config, name)
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


DEFAULT_TOL = ToleranceConfig()
