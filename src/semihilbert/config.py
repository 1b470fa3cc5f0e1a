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
    theta_samples     grid resolution of the circle-parameter suprema: every
                      objective has period pi, so the grid samples [0, pi)
                      with ceil(theta_samples / 2) points, a spacing of at
                      most 2*pi / theta_samples.  The pair radii search
                      this grid; a numerical radius searches 8 points first
                      and this grid only as the fallback for the problems
                      whose certificate fails (or when it has at most 8)
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
            require_positive(name, getattr(self, name))
        require_integer("theta_samples", self.theta_samples, 8)
        require_integer("gelfand_max_power", self.gelfand_max_power, 1)


def require_positive(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite positive
    number."""
    if not (isinstance(value, Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def require_integer(name: str, value, least: int, error: type[Exception] = ValueError) -> int:
    """``value`` as an ``int``; raises ``error`` naming ``name`` unless it is an
    integer, not a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise error(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


DEFAULT_TOL = ToleranceConfig()
