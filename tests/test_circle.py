"""Circle-parameter supremum search and its Newton refiner.

Every objective here has period pi, as the package's radius objectives do:
the trigonometric ones use even frequencies only."""

import math

import numpy as np
import pytest

from semihilbert import ToleranceConfig, sup_on_circle_batch
from semihilbert.circle import (
    _DELTA,
    _GRID_SLICE,
    _PEAKS,
    closed_form_certificate,
    phase_combo_derivatives,
    phase_combo_norm_objective,
    radius_certificate,
    rotation_eig_derivatives,
    rotation_eig_objective,
)

from conftest import CAMPAIGN_TOL, COARSE_TOL

TWO_PI = 2.0 * math.pi


def trig_oracle(terms):
    """Objective sum_k a_k cos(f_k (theta - s_k)) and its derivative oracle."""

    def evaluate(thetas):
        return sum(a * np.cos(f * (thetas - s)) for a, f, s in terms)

    def derivatives(rows, thetas):
        slope = sum(-a * f * np.sin(f * (thetas - s)) for a, f, s in terms)
        curv = sum(-a * f * f * np.cos(f * (thetas - s)) for a, f, s in terms)
        return evaluate(thetas), slope, curv

    return evaluate, derivatives


def search_one(f, tol, derivatives):
    """Supremum of a single objective."""
    return sup_on_circle_batch(f, 1, tol, derivatives)[0]


def counting(derivatives, calls):
    """Wrap a derivative oracle so that every call appends its lane count."""

    def counted(rows, thetas):
        calls.append(len(rows))
        return derivatives(rows, thetas)

    return counted


def rotation_search(mats, tol=CAMPAIGN_TOL, calls=None):
    """Suprema of ||H(t)|| over [0, pi) for a stack, as the radii layer searches them."""
    mats = np.asarray(mats, dtype=complex)
    derivatives = rotation_eig_derivatives(mats)
    if calls is not None:
        derivatives = counting(derivatives, calls)
    return sup_on_circle_batch(rotation_eig_objective(mats), len(mats), tol, derivatives)


def pair_search(lefts, rights, tol=CAMPAIGN_TOL):
    return sup_on_circle_batch(
        phase_combo_norm_objective(lefts, rights), len(lefts), tol, phase_combo_derivatives(lefts, rights)
    )


def test_cosine_objective_refines_to_known_maximum():
    shift = 1.2345
    f, derivatives = trig_oracle([(1.0, 2.0, shift)])
    res = search_one(f, ToleranceConfig(theta_samples=64, theta_refine_tol=1e-12), derivatives)
    assert res == pytest.approx(1.0, abs=1e-12)


def test_argmax_wraps_into_the_period():
    # the peak sits just below pi, so it is refined from the grid point 0
    # and found at a negative angle, in the bracket [-h, h]
    shift = 1e-3
    f, derivatives = trig_oracle([(1.0, 2.0, -shift)])
    res = search_one(f, ToleranceConfig(theta_samples=64), derivatives)
    assert res == pytest.approx(1.0, abs=1e-12)


def test_multimodal_objective_finds_global_peak():
    # two peaks of different height; the refiner must keep the taller one
    f, derivatives = trig_oracle([(1.0, 2.0, 0.0), (0.8, 4.0, 2.0)])
    res = search_one(f, ToleranceConfig(theta_samples=256), derivatives)
    grid = np.linspace(0, np.pi, 200_001)
    brute = f(grid[None, :]).max()
    assert res >= brute - 1e-9
    assert res <= brute + 1e-6


def test_plateau_ties_return_the_plateau_value():
    # every grid point ties, and every refined lane stops at once at its start
    def f(thetas):
        return np.ones_like(thetas)

    def derivatives(rows, thetas):
        return f(thetas), np.zeros_like(thetas), np.zeros_like(thetas)

    lanes = []
    res = search_one(f, ToleranceConfig(theta_samples=32), counting(derivatives, lanes))
    assert res == 1.0
    assert lanes == [3]  # three tied grid peaks, one oracle call each


def test_equal_refined_value_keeps_the_grid_maximum():
    # a refined value equal to the grid maximum (+0.0 against -0.0) does not
    # replace it, so a zero radius keeps the sign its grid gave it
    def f(thetas):
        return np.full(np.shape(thetas), -0.0)

    def derivatives(rows, thetas):
        zero = np.zeros_like(thetas)
        return zero, zero, zero

    lanes = []
    res = sup_on_circle_batch(f, 3, ToleranceConfig(theta_samples=32), counting(derivatives, lanes))
    assert lanes == [9]
    assert np.all(res == 0.0) and np.signbit(res).all()


def test_search_returns_a_float64_array_of_the_suprema():
    rng = np.random.default_rng(5)
    mats, lefts, rights = random_stack(rng, 5, 3), random_stack(rng, 5, 3), random_stack(rng, 5, 3)
    coarse = ToleranceConfig(theta_samples=64, theta_refine_tol=1.0)
    for tol in (CAMPAIGN_TOL, coarse):
        for values in (rotation_search(mats, tol), pair_search(lefts, rights, tol)):
            assert isinstance(values, np.ndarray)
            assert values.dtype == np.float64 and values.shape == (5,)
    # a zero stack gives exact zeros for both objectives
    zeros = np.zeros((4, 3, 3), dtype=complex)
    assert np.array_equal(rotation_search(zeros), np.zeros(4))
    assert np.array_equal(pair_search(zeros, zeros), np.zeros(4))


def test_value_never_below_any_grid_sample():
    # rotated Hermitian parts and pair combinations of several orders, against
    # every sample of a 4096-point full-circle grid
    rng = np.random.default_rng(3)
    grid = np.arange(4096) * (TWO_PI / 4096)
    for n in (1, 2, 5, 9):
        mats = random_stack(rng, 4, n)
        objective = rotation_eig_objective(mats)
        samples = objective(np.broadcast_to(grid, (4, grid.size))).max(axis=1)
        for tol in (CAMPAIGN_TOL, ToleranceConfig()):
            values = rotation_search(mats, tol)
            assert np.all(values >= samples - 1e-14 * samples)
        lefts, rights = random_stack(rng, 4, n), random_stack(rng, 4, n)
        samples = phase_combo_norm_objective(lefts, rights)(np.broadcast_to(grid, (4, grid.size)))
        values = pair_search(lefts, rights)
        assert np.all(values >= samples.max(axis=1) * (1.0 - 1e-14))


def test_batch_matches_single_runs():
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    tol = ToleranceConfig(theta_samples=128)
    batch = rotation_search(mats, tol)
    for k in range(5):
        single = rotation_search(mats[k][None], tol)[0]
        assert batch[k] == pytest.approx(single, abs=1e-12)


def test_refinement_can_be_disabled_by_coarse_tolerance():
    # grid brackets 2 pi / 32 wide are already below theta_refine_tol, so the
    # search ends at the grid and never calls the oracle
    f, derivatives = trig_oracle([(1.0, 2.0, 0.3)])
    calls = []
    res = search_one(f, ToleranceConfig(theta_samples=64, theta_refine_tol=1.0), counting(derivatives, calls))
    assert calls == []
    assert res == f(np.arange(32) * (math.pi / 32)).max()
    assert res == pytest.approx(1.0, abs=1e-2)


# ------------------------------------------------------- closed-form oracles


def test_flat_disk_stops_at_once():
    # [[0, b], [0, 0]] (zero-padded) has a disk of radius |b|/2 as numerical
    # range: ||H(t)|| is level, every angle is stationary, and each lane
    # stops at its start whatever sign the rounded curvature takes
    rng = np.random.default_rng(45)
    draws = [1.0, 3.0 - 4.0j, 1e-8j, 1e8]
    draws += list((rng.standard_normal(100) + 1j * rng.standard_normal(100)) * 10 ** rng.uniform(-6, 6, 100))
    for k, b in enumerate(draws):
        mat = np.zeros((2 + k % 4, 2 + k % 4), dtype=complex)
        mat[0, 1] = b
        for tol in (CAMPAIGN_TOL, ToleranceConfig()):
            calls = []
            res = rotation_search(mat[None], tol, calls)[0]
            assert res == pytest.approx(abs(b) / 2.0, rel=1e-14)
            assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 6])
def test_normal_matrix_radius_is_largest_eigenvalue_modulus(n):
    rng = np.random.default_rng(40 + n)
    q, _ = np.linalg.qr(random_stack(rng, 1, n)[0])
    eigs = random_stack(rng, 1, n)[0, 0]
    normal = (q * eigs) @ q.conj().T
    for tol in (CAMPAIGN_TOL, ToleranceConfig()):
        res = rotation_search(normal[None], tol)[0]
        assert res == pytest.approx(np.abs(eigs).max(), rel=1e-14)


def test_kink_where_both_spectral_ends_meet():
    # e^{i a} diag(1, -1, 0.3): lambda_max = -lambda_min at every angle, so the
    # objective's sign choice flips on rounding; the peak at t = -a is off the grid
    mat = np.exp(0.3j) * np.diag([1.0, -1.0, 0.3])
    for tol in (CAMPAIGN_TOL, ToleranceConfig()):
        res = rotation_search(mat[None], tol)[0]
        assert res == pytest.approx(1.0, rel=1e-15)


def test_zero_and_scalar_matrices():
    zero, scalar = rotation_search(np.zeros((1, 3, 3))), rotation_search([[[2.0 - 1.5j]]])
    assert zero[0] == 0.0
    assert scalar[0] == pytest.approx(2.5, rel=1e-15)
    pair = pair_search(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
    assert pair[0] == 0.0


@pytest.mark.parametrize("n", [1, 3])
def test_rank_one_pair_radius(n):
    # L = l x y^*, R = r x y^* with unit x, y: sigma_max(e^{it} L + e^{-it} R)
    # = |e^{it} l + e^{-it} r|, whose supremum is |l| + |r|
    rng = np.random.default_rng(50 + n)
    x, y = random_stack(rng, 2, n)[:, 0]
    outer = np.outer(x / np.linalg.norm(x), (y / np.linalg.norm(y)).conj())
    l, r = 0.7 - 0.2j, -1.3j
    for tol in (CAMPAIGN_TOL, ToleranceConfig()):
        res = pair_search((l * outer)[None], (r * outer)[None], tol)[0]
        assert res / 2.0 == pytest.approx((abs(l) + abs(r)) / 2.0, rel=1e-14)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_radii_scale_with_the_matrices(scale):
    rng = np.random.default_rng(60)
    mats, lefts, rights = random_stack(rng, 4, 3), random_stack(rng, 4, 3), random_stack(rng, 4, 3)
    np.testing.assert_allclose(rotation_search(scale * mats), scale * rotation_search(mats), rtol=1e-14)
    np.testing.assert_allclose(
        pair_search(scale * lefts, scale * rights), scale * pair_search(lefts, rights), rtol=1e-14
    )


@pytest.mark.parametrize(
    "tol",
    [pytest.param(CAMPAIGN_TOL, id="tol0-pi"), pytest.param(ToleranceConfig(), id="tol1-pi")],
)
def test_newton_refinement_step_budget(tol):
    # the grid is the only call of the objective; the refiner then takes at
    # most 6 lockstep steps of one eigh each, with one lane per distinct grid
    # peak (at most 3 per problem), where golden section needed 31 (tol0) or
    # 53 (tol1) objective calls on 3 lanes per problem
    mats = random_stack(np.random.default_rng(6), 4, 4)
    objective = rotation_eig_objective(mats)
    angles, lanes = [], []

    def counted(thetas):
        angles.append(thetas.shape[1])
        return objective(thetas)

    results = sup_on_circle_batch(counted, len(mats), tol, counting(rotation_eig_derivatives(mats), lanes))
    m = math.ceil(tol.theta_samples / 2)
    assert angles == [m]
    samples = objective(np.broadcast_to(np.arange(m) * (math.pi / m), (len(mats), m)))
    peaks = (samples >= np.roll(samples, 1, axis=1)) & (samples >= np.roll(samples, -1, axis=1))
    assert lanes[0] == np.minimum(peaks.sum(axis=1), 3).sum()
    assert len(lanes) <= 6
    assert np.all(results >= samples.max(axis=1))


def test_stationary_minimum_at_a_grid_peak_is_left():
    # cos(2t) / 4 + c (1 - cos(64 t)) equals cos(2t) / 4 on the 32-point grid
    # over [0, pi), so the grid peak is t = 0; there the slope is exactly 0
    # but the curvature -1 + 64^2 c is positive, and the true maxima sit
    # between grid points
    f, derivatives = trig_oracle([(0.25, 2.0, 0.0), (1e-3, 0.0, 0.0), (-1e-3, 64.0, 0.0)])
    res = search_one(f, ToleranceConfig(theta_samples=64), derivatives)
    grid = np.linspace(-0.1, 0.1, 200_001)
    assert res >= f(grid).max() - 1e-12
    assert res > 0.25 + 5e-4


def test_single_peak_is_refined_on_one_lane():
    f, derivatives = trig_oracle([(1.0, 2.0, 0.3)])
    lanes = []
    res = search_one(f, ToleranceConfig(theta_samples=64), counting(derivatives, lanes))
    assert set(lanes) == {1}
    assert res == pytest.approx(1.0, abs=1e-15)


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
    results = rotation_search(mats)
    reference = lambda_max_on_full_circle(mats)
    for res, samples in zip(results, reference):
        assert res >= samples.max() - 1e-12 * max(1.0, samples.max())


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
    results = pair_search(lefts, rights)
    for res, row in zip(results, samples):
        assert res >= row.max() - 1e-12 * row.max()


def test_odd_theta_samples_never_coarsen_the_half_circle_grid():
    mats = random_stack(np.random.default_rng(30), 5, 4)
    objective = rotation_eig_objective(mats)
    tol = ToleranceConfig(theta_samples=129, theta_refine_tol=1e-7)
    calls = []

    def counted(thetas):
        calls.append(np.array(thetas))
        return objective(thetas)

    results = sup_on_circle_batch(counted, len(mats), tol, rotation_eig_derivatives(mats))
    grid = calls[0][0]
    assert grid.size == 65  # ceil(129 / 2)
    assert np.diff(grid).max() <= TWO_PI / 129
    assert grid[-1] + np.diff(grid).max() == pytest.approx(math.pi)
    for res, row in zip(results, lambda_max_on_full_circle(mats, 129)):
        assert res >= row.max() - 1e-12 * max(1.0, row.max())


def test_oracle_lanes_are_sliced_without_changing_their_values(monkeypatch):
    # 40 problems with 3 lanes each: one oracle call gathers and solves at
    # most _GRID_SLICE * _PEAKS lanes at a time, and every lane's values are
    # bitwise those of a call on that lane alone or on a 16-lane piece
    rng = np.random.default_rng(70)
    mats = random_stack(rng, 40, 4)
    rows = np.repeat(np.arange(40), 3)
    thetas = rng.uniform(0.0, math.pi, rows.size)
    oracle = rotation_eig_derivatives(mats)
    batches = []
    eigh = np.linalg.eigh

    def counted(a):
        batches.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    whole = np.array(oracle(rows, thetas))
    assert batches == [48, 48, 24] and _GRID_SLICE * _PEAKS == 48
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for size in (1, 16):
        pieces = [oracle(rows[i : i + size], thetas[i : i + size]) for i in range(0, rows.size, size)]
        assert np.array_equal(whole, np.concatenate([np.array(p) for p in pieces], axis=1))


# ------------------------------------------------------------- certificate


def square_zero_stack(rng, count, n):
    """Matrices u v^* with v^* u = 0: M^2 = 0, and the numerical range is a disk."""
    u, v = random_stack(rng, 2, n)[:, :, :count]
    v -= u * ((u.conj() * v).sum(axis=0) / (u.conj() * u).sum(axis=0))
    return np.einsum("ik,jk->kij", u, v.conj())


def test_certificate_holds_on_searched_values_at_every_scale():
    # the coarse search's values certify alike from 1e-8 to 1e8, and an exact
    # zero matrix is certified with radius 0
    mats = random_stack(np.random.default_rng(71), 6, 4)
    for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
        scaled = scale * mats
        assert radius_certificate(scaled, rotation_search(scaled, COARSE_TOL)).all()
    zeros = np.zeros((2, 4, 4), dtype=complex)
    assert radius_certificate(zeros, np.zeros(2)).all()
    mixed = np.concatenate([zeros[:1], mats[:1]])
    assert radius_certificate(mixed, rotation_search(mixed, COARSE_TOL)).all()


def test_certificate_rejects_every_grid_value_that_falls_short():
    # 8 grid angles without Newton under-report by up to cos(pi/16): every
    # value short of the full search by more than 1e-9 relative is rejected,
    # and every Newton-polished value is certified
    mats = random_stack(np.random.default_rng(72), 64, 3)
    full = rotation_search(mats)
    grid_only = rotation_search(mats, ToleranceConfig(theta_samples=16, theta_refine_tol=1.0))
    short = grid_only < full * (1.0 - 1e-9)
    assert short.sum() > 32
    assert not radius_certificate(mats, grid_only)[short].any()
    assert radius_certificate(mats, rotation_search(mats, COARSE_TOL)).all()


def test_square_zero_matrices_are_not_certified():
    # a disk-shaped numerical range keeps lambda_max(H) level at the radius,
    # so the pencil at r_hi is nearly singular and the certificate fails
    mats = square_zero_stack(np.random.default_rng(73), 5, 4)
    values = rotation_search(mats, COARSE_TOL)
    np.testing.assert_allclose(values, np.linalg.norm(mats, 2, axis=(1, 2)) / 2.0, rtol=1e-14)
    assert not radius_certificate(mats, values).any()


# ------------------------------------------------------------- closed form


def closed_form_stacks(rng):
    """(kind, stack of 4) over n = 1 to 6: general, Hermitian, normal,
    square-zero (n >= 2) and a Jordan-3 block in a random basis (n >= 3),
    whose square is not zero."""
    for n in range(1, 7):
        general = random_stack(rng, 4, n)
        basis = np.linalg.qr(random_stack(rng, 4, n))[0]
        spectrum = random_stack(rng, 4, n)[..., :1] * np.eye(n)
        yield "general", general
        yield "hermitian", general + np.conj(np.swapaxes(general, -1, -2))
        yield "normal", basis @ spectrum @ np.conj(np.swapaxes(basis, -1, -2))
        if n >= 2:
            yield "square-zero", square_zero_stack(rng, 4, n)
        if n >= 3:
            jordan = np.eye(n, k=1) * (np.arange(n) < 2)[:, None]
            yield "jordan-3", basis @ jordan @ np.conj(np.swapaxes(basis, -1, -2))


def closed_form_upper(mats):
    """sqrt(||M^* M + M M^*|| / 4 + ||M^2|| / 2), from numpy's matrix 2-norms."""
    adj = np.conj(np.swapaxes(mats, -1, -2))
    herm = np.linalg.norm(mats @ adj + adj @ mats, 2, axis=(-2, -1))
    return np.sqrt(herm / 4.0 + np.linalg.norm(mats @ mats, 2, axis=(-2, -1)) / 2.0)


def test_closed_form_bounds_the_radius_and_certifies_within_half_the_margin():
    # omega <= u at every order, kind and scale; a value v is certified
    # exactly when u <= v (1 + delta / 2), and u is the radius itself on
    # normal and square-zero matrices, but not on a Jordan-3 block
    rng = np.random.default_rng(74)
    for kind, mats in closed_form_stacks(rng):
        for scale in (1e-8, 1.0, 1e8):
            scaled = scale * mats
            upper, omega = closed_form_upper(scaled), rotation_search(scaled)
            assert (omega <= upper * (1.0 + 1e-14)).all(), kind
            assert closed_form_certificate(scaled, upper / (1.0 + _DELTA / 4.0)).all(), kind
            assert not closed_form_certificate(scaled, upper / (1.0 + 3.0 * _DELTA / 4.0)).any(), kind
            if kind in ("hermitian", "normal", "square-zero"):
                assert closed_form_certificate(scaled, omega).all(), kind
            elif kind == "jordan-3":
                assert not closed_form_certificate(scaled, omega).any()


def test_closed_form_never_certifies_a_lowered_value():
    # on normal and square-zero matrices u is the radius, so a coarse value
    # lowered by hand to v (1 - 1e-6) falls below it and is rejected
    rng = np.random.default_rng(75)
    for kind, mats in closed_form_stacks(rng):
        if kind in ("normal", "square-zero"):
            values = rotation_search(mats, COARSE_TOL)
            assert closed_form_certificate(mats, values).all()
            assert not closed_form_certificate(mats, values * (1.0 - 1e-6)).any()
