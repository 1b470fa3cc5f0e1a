"""Circle-parameter supremum search."""

import numpy as np
import pytest

from semihilbert import ToleranceConfig, sup_on_circle, sup_on_circle_batch
from semihilbert.circle import _SHRINK, TWO_PI, rotation_eig_objective


def test_cosine_objective_refines_to_known_maximum():
    shift = 1.2345

    def f(thetas):
        return np.cos(thetas - shift)

    res = sup_on_circle(f, ToleranceConfig(theta_samples=64, theta_refine_tol=1e-12))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.argmax_theta == pytest.approx(shift, abs=1e-6)
    assert res.refined


def test_multimodal_objective_finds_global_peak():
    # two peaks of different height; the refiner must keep the taller one
    def f(thetas):
        return np.cos(thetas) + 0.8 * np.cos(2 * (thetas - 2.0))

    res = sup_on_circle(f, ToleranceConfig(theta_samples=256))
    grid = np.linspace(0, 2 * np.pi, 200_001)
    brute = f(grid[None, :]).max()
    assert res.value >= brute - 1e-9
    assert res.value <= brute + 1e-6


def test_plateau_ties_resolve_to_smallest_angle():
    def f(thetas):
        return np.ones_like(thetas)

    res = sup_on_circle(f, ToleranceConfig(theta_samples=32))
    assert res.value == 1.0
    assert res.argmax_theta == 0.0


def test_value_never_below_any_grid_sample():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    tol = ToleranceConfig(theta_samples=128)
    objective = rotation_eig_objective(m[None])
    res = sup_on_circle(objective, tol)
    grid = np.arange(4096) * (2 * np.pi / 4096)
    samples = objective(np.broadcast_to(grid, (1, 4096)))[0]
    assert res.value >= samples.max() - 1e-10


def test_batch_matches_single_runs():
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    tol = ToleranceConfig(theta_samples=128)
    batch = sup_on_circle_batch(rotation_eig_objective(mats), 5, tol)
    for k in range(5):
        single = sup_on_circle(rotation_eig_objective(mats[k][None]), tol)
        assert batch[k].value == pytest.approx(single.value, abs=1e-12)


def test_refinement_can_be_disabled_by_coarse_tolerance():
    def f(thetas):
        return np.cos(thetas)

    res = sup_on_circle(f, ToleranceConfig(theta_samples=64, theta_refine_tol=1.0))
    assert not res.refined
    assert res.value == pytest.approx(1.0, abs=1e-2)


def contractions(tol):
    """Golden-section steps that take the 2h starting bracket below the tolerance."""
    width, steps = 2.0 * TWO_PI / tol.theta_samples, 0
    while width > tol.theta_refine_tol:
        width *= _SHRINK
        steps += 1
    return steps


@pytest.mark.parametrize(
    "tol, expected",
    [
        (ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7), 221),
        (ToleranceConfig(), 1177),
    ],
)
def test_golden_section_evaluates_one_new_angle_per_peak_and_step(tol, expected):
    # grid, both interior points of the first step for 3 peaks, one point per
    # peak for every later step, then the 3 bracket centres
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    objective = rotation_eig_objective(mats)
    calls = []

    def counted(thetas):
        values = objective(thetas)
        calls.append(values)
        return values

    results = sup_on_circle_batch(counted, len(mats), tol)
    m, steps = tol.theta_samples, contractions(tol)
    angles = sum(v.shape[1] for v in calls)
    assert angles == m + 6 + 3 * (steps - 1) + 3 == expected
    grid_best = calls[0].max(axis=1)
    for res, best in zip(results, grid_best):
        assert res.value >= best
