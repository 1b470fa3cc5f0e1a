"""Circle-parameter supremum search."""

import math

import numpy as np
import pytest

from semihilbert import ToleranceConfig, sup_on_circle, sup_on_circle_batch
from semihilbert.circle import (
    _SHRINK,
    TWO_PI,
    phase_combo_norm_objective,
    rotation_eig_objective,
)

CAMPAIGN_TOL = ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7)


def test_cosine_objective_refines_to_known_maximum():
    shift = 1.2345

    def f(thetas):
        return np.cos(thetas - shift)

    res = sup_on_circle(f, ToleranceConfig(theta_samples=64, theta_refine_tol=1e-12))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.argmax_theta == pytest.approx(shift, abs=1e-6)
    assert res.refined


def test_argmax_wraps_into_the_period():
    # the peak sits just below pi, so its bracket centre comes out negative
    shift = 1e-3

    def f(thetas):
        return np.cos(2.0 * (thetas + shift))

    res = sup_on_circle_batch(f, 1, ToleranceConfig(theta_samples=64), math.pi)[0]
    assert res.argmax_theta == pytest.approx(math.pi - shift, abs=1e-6)
    assert res.value == pytest.approx(1.0, abs=1e-12)


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
    "tol, period, expected",
    [
        pytest.param(CAMPAIGN_TOL, TWO_PI, 221, id="tol0-221"),
        pytest.param(ToleranceConfig(), TWO_PI, 1177, id="tol1-1177"),
        pytest.param(CAMPAIGN_TOL, math.pi, 157, id="tol0-pi-157"),
        pytest.param(ToleranceConfig(), math.pi, 665, id="tol1-pi-665"),
    ],
)
def test_golden_section_evaluates_one_new_angle_per_peak_and_step(tol, period, expected):
    # grid, both interior points of the first step for 3 peaks, one point per
    # peak for every later step, then the 3 bracket centres; a period-pi
    # search has half the grid at the same spacing, so the same step count
    rng = np.random.default_rng(6)
    mats = rng.standard_normal((4, 4, 4)) + 1j * rng.standard_normal((4, 4, 4))
    objective = rotation_eig_objective(mats)
    calls = []

    def counted(thetas):
        values = objective(thetas)
        calls.append(values)
        return values

    results = sup_on_circle_batch(counted, len(mats), tol, period)
    m, steps = round(tol.theta_samples * period / TWO_PI), contractions(tol)
    angles = sum(v.shape[1] for v in calls)
    assert calls[0].shape[1] == m
    assert angles == m + 6 + 3 * (steps - 1) + 3 == expected
    grid_best = calls[0].max(axis=1)
    for res, best in zip(results, grid_best):
        assert res.value >= best
        assert 0.0 <= res.argmax_theta < period
        assert res.samples == tol.theta_samples


def lambda_max_on_full_circle(mats, points=4096):
    """lambda_max of the rotated Hermitian part on a uniform full-circle grid."""
    thetas = np.arange(points) * (TWO_PI / points)
    ph = np.exp(1j * thetas)[:, None, None]
    rotated = ph * mats[:, None] + np.conj(ph * mats[:, None]).swapaxes(-1, -2)
    return np.linalg.eigvalsh(rotated / 2.0)[..., -1]


def random_stack(rng, count, n):
    return rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_half_circle_search_reaches_full_circle_lambda_max(n):
    # ||H(t)|| over [0, pi) covers lambda_max(H(t)) over the whole circle
    mats = random_stack(np.random.default_rng(10 + n), 6, n)
    objective = rotation_eig_objective(mats)
    results = sup_on_circle_batch(objective, len(mats), CAMPAIGN_TOL, math.pi)
    reference = lambda_max_on_full_circle(mats)
    for res, samples in zip(results, reference):
        assert res.value >= samples.max() - 1e-12 * max(1.0, samples.max())
        assert 0.0 <= res.argmax_theta < math.pi


@pytest.mark.parametrize("n", [2, 3, 5])
def test_half_circle_search_reaches_full_circle_pair_objective(n):
    rng = np.random.default_rng(20 + n)
    lefts, rights = random_stack(rng, 6, n), random_stack(rng, 6, n)
    objective = phase_combo_norm_objective(lefts, rights)
    full = np.arange(4096) * (TWO_PI / 4096)
    samples = objective(np.broadcast_to(full, (len(lefts), full.size)))
    # pi-periodic: the combination at t + pi is the negative of the one at t
    shifted = objective(np.broadcast_to(full + math.pi, (len(lefts), full.size)))
    np.testing.assert_allclose(shifted, samples, rtol=1e-13, atol=0.0)
    results = sup_on_circle_batch(objective, len(lefts), CAMPAIGN_TOL, math.pi)
    for res, row in zip(results, samples):
        assert res.value >= row.max() - 1e-12 * row.max()
        assert 0.0 <= res.argmax_theta < math.pi


def test_odd_theta_samples_never_coarsen_the_half_circle_grid():
    mats = random_stack(np.random.default_rng(30), 5, 4)
    objective = rotation_eig_objective(mats)
    tol = ToleranceConfig(theta_samples=129, theta_refine_tol=1e-7)
    calls = []

    def counted(thetas):
        calls.append(np.array(thetas))
        return objective(thetas)

    results = sup_on_circle_batch(counted, len(mats), tol, math.pi)
    grid = calls[0][0]
    assert grid.size == 65  # ceil(129 / 2)
    assert np.diff(grid).max() <= TWO_PI / 129
    assert grid[-1] + np.diff(grid).max() == pytest.approx(math.pi)
    for res, row in zip(results, lambda_max_on_full_circle(mats, 129)):
        assert res.value >= row.max() - 1e-12 * max(1.0, row.max())
        assert res.samples == 129
