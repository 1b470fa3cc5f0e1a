"""Classical and weighted radii, the adjoint identity check and the circle search."""

import numpy as np
import pytest

from semihilbert import (
    Operator,
    RouteDisagreement,
    ToleranceConfig,
    a_adjoint,
    a_numerical_radius,
    a_op_norm,
    a_spectral_radius,
    classical_numerical_radius,
    classical_spectral_radius,
    gelfand_envelope,
    im_a,
    make_context,
    omega_offdiag,
    omega_real_part_sup,
    re_a,
    reduce,
)
from semihilbert.generators import ENSEMBLES, gen_a_unitary, gen_compatible, gen_psd
from semihilbert.radii import validated_radius_batch

from conftest import a_unit_samples, random_member

SLACK = 1e-8


# ------------------------------------------------------------- classical


def test_classical_radius_nilpotent_block():
    assert classical_numerical_radius([[0, 1], [0, 0]]).value == pytest.approx(0.5)


def test_classical_radius_hermitian():
    assert classical_numerical_radius(np.diag([1.0, -1.0])).value == pytest.approx(1.0)


def test_classical_radius_montecarlo_crosscheck():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    result = classical_numerical_radius(m)
    rng = np.random.default_rng(12)
    z = rng.standard_normal((1_000_000, 2)) + 1j * rng.standard_normal((1_000_000, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    sampled = np.abs(np.einsum("ki,ij,kj->k", z.conj(), m, z)).max()
    assert result.value == pytest.approx(1.0)
    assert abs(result.value - sampled) < 1e-4
    assert result.value >= sampled - 1e-12


def test_classical_spectral_radius_cases():
    assert classical_spectral_radius([[0, 1], [0, 0]]) == 0.0
    assert classical_spectral_radius(np.diag([3.0, -5.0])) == pytest.approx(5.0)
    assert classical_spectral_radius([[0, 2], [3, 0]]) == pytest.approx(np.sqrt(6.0))


def test_theta_search_result_fields():
    res = classical_numerical_radius([[0, 1], [0, 0]])
    assert 0.0 <= res.argmax_theta < np.pi  # the objective has period pi
    assert res.samples == 1024 and res.refined


def test_theta_grid_stability_on_regression_corpus():
    # doubling the grid must not move the result; includes a lifted-size matrix
    rng = np.random.default_rng(7)
    corpus = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (2, 3, 4, 12)]
    coarse = ToleranceConfig(theta_samples=1024)
    fine = ToleranceConfig(theta_samples=2048)
    for m in corpus:
        v1 = classical_numerical_radius(m, coarse).value
        v2 = classical_numerical_radius(m, fine).value
        assert abs(v1 - v2) < 1e-9 * (1.0 + abs(v1))


def test_theta_grid_stability_at_campaign_resolution():
    rng = np.random.default_rng(8)
    corpus = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (3, 8, 12)]
    coarse = ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7)
    fine = ToleranceConfig(theta_samples=256, theta_refine_tol=1e-7)
    for m in corpus:
        v1 = classical_numerical_radius(m, coarse).value
        v2 = classical_numerical_radius(m, fine).value
        assert abs(v1 - v2) < 1e-9 * (1.0 + abs(v1))


# ------------------------------------------------------- real and imag part


def test_cartesian_decomposition_identity_weight():
    ctx = make_context(np.eye(2))
    t = Operator([[0, 1], [0, 0]], ctx)
    assert np.allclose(re_a(t).t, [[0, 0.5], [0.5, 0]])
    assert np.allclose(im_a(t).t, [[0, -0.5j], [0.5j, 0]])


def test_imaginary_part_of_selfadjoint_vanishes_under_weight():
    ctx = gen_psd(3, 2, seed=2)
    t = gen_compatible(ctx, 5, "a-selfadjoint")
    im = im_a(t)
    assert np.linalg.norm(ctx.a @ im.t, 2) < 1e-10


def test_real_part_rank_deficient_by_hand():
    ctx = make_context(np.diag([1.0, 0.0]))
    t = Operator([[1, 0], [3, 4]], ctx)
    assert np.allclose(a_adjoint(t).t, [[1, 0], [0, 0]])
    assert np.allclose(re_a(t).t, [[1, 0], [1.5, 2]])


def test_parts_are_weighted_selfadjoint():
    for seed in range(20):
        ctx, t = random_member(4, 3, seed)
        for part in (re_a(t), im_a(t)):
            prod = ctx.a @ part.t
            assert np.linalg.norm(prod - prod.conj().T, 2) <= 1e-10 * (1 + ctx.norm)


# ------------------------------------------------------------ weighted omega


def test_weighted_radius_nilpotent():
    ctx = make_context(np.eye(2))
    assert a_numerical_radius(Operator([[0, 1], [0, 0]], ctx)) == pytest.approx(0.5)


def test_weighted_radius_selfadjoint():
    ctx = make_context(np.eye(2))
    assert a_numerical_radius(Operator(np.diag([1.0, -1.0]), ctx)) == pytest.approx(1.0)


def test_weighted_radius_rank_deficient_by_hand():
    ctx = make_context(np.diag([1.0, 0.0]))
    t = Operator([[1, 0], [3, 4]], ctx)
    assert np.allclose(reduce(t), [[1, 0], [0, 0]])
    assert a_numerical_radius(t) == pytest.approx(1.0)


def test_route_agreement_on_members():
    for seed in range(25):
        _, t = random_member(4, 3, seed)
        primary = a_numerical_radius(t)
        alt = omega_real_part_sup(t).value
        assert abs(primary - alt) <= 1e-9 * (1.0 + primary)


def test_route_disagreement_raises():
    _, t = random_member(3, 3, seed=1)
    _, s = random_member(3, 3, seed=2)
    wrong_sharp = reduce(s)  # deliberately not the adjoint of t
    with pytest.raises(RouteDisagreement):
        validated_radius_batch(
            reduce(t)[None], wrong_sharp[None], ToleranceConfig()
        )


def test_adjoint_identity_check_has_norm_scaled_slack():
    _, t = random_member(3, 2, seed=4)
    tol = ToleranceConfig()
    r = reduce(t)
    slack = tol.cmp_atol * (1.0 + np.linalg.norm(r, 2))
    rng = np.random.default_rng(5)
    e = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    e /= np.linalg.norm(e, 2)
    stack = np.stack([r, r])
    exact = np.conj(np.swapaxes(stack, -1, -2))
    within = validated_radius_batch(stack, exact + 0.5 * slack * e, tol)
    assert within == validated_radius_batch(stack, None, tol)
    beyond = exact.copy()
    beyond[1] += 2.0 * slack * e  # only the second member of the stack is off
    with pytest.raises(RouteDisagreement, match="index 1"):
        validated_radius_batch(stack, beyond, tol)


def test_radius_montecarlo_lower_envelope():
    for seed in (3, 4):
        ctx, t = random_member(3, 2, seed)
        omega = a_numerical_radius(t)
        rng = np.random.default_rng(seed)
        x = a_unit_samples(rng, ctx, 200_000)
        tx = x @ t.t.T
        sampled = np.abs(np.einsum("ki,ij,kj->k", x.conj(), ctx.a, tx)).max()
        assert sampled <= omega + 1e-9
        assert abs(sampled - omega) <= 5e-3 * (1.0 + omega)


def test_equivalence_with_seminorm():
    for seed in range(30):
        _, t = random_member(3, 2, seed)
        omega = a_numerical_radius(t)
        norm = a_op_norm(t)
        assert 0.5 * norm - SLACK <= omega <= norm + SLACK


def test_power_refinement_inequality():
    for seed in range(30):
        ctx, t = random_member(3, 2, seed)
        omega = a_numerical_radius(t)
        squared = Operator(t.t @ t.t, ctx)
        rhs = 0.5 * (a_op_norm(t) + np.sqrt(a_op_norm(squared)))
        assert omega <= rhs + SLACK


def test_vanishing_weighted_square_forces_half_norm():
    for seed in range(30):
        ctx = gen_psd(4, 3, seed)
        t = gen_compatible(ctx, seed + 50, "nilpotent-lift")
        omega = a_numerical_radius(t)
        target = 0.5 * a_op_norm(t)
        assert abs(omega - target) <= SLACK * (1.0 + target)


def test_selfadjoint_triple_equality():
    for seed in range(30):
        ctx = gen_psd(4, 3, seed)
        t = gen_compatible(ctx, seed + 70, "a-selfadjoint")
        vals = [a_op_norm(t), a_numerical_radius(t), a_spectral_radius(t)]
        assert max(vals) - min(vals) <= SLACK * (1.0 + max(vals))


def test_radius_bounded_by_sqrt_of_part_norms():
    for seed in range(30):
        _, t = random_member(3, 2, seed)
        omega = a_numerical_radius(t)
        rhs = np.hypot(a_op_norm(re_a(t)), a_op_norm(im_a(t)))
        assert omega <= rhs + SLACK


def test_unitary_conjugation_invariance():
    for seed in range(20):
        ctx = gen_psd(3, 2, seed)
        t = gen_compatible(ctx, seed + 30)
        u = gen_a_unitary(ctx, seed + 60)
        conj = Operator(a_adjoint(u).t @ t.t @ u.t, ctx)
        w1, w2 = a_numerical_radius(t), a_numerical_radius(conj)
        assert abs(w1 - w2) <= SLACK * (1.0 + w1)


# --------------------------------------------------------- spectral radius


def test_weighted_spectral_radius_nilpotent():
    ctx = make_context(np.eye(2))
    assert a_spectral_radius(Operator([[0, 1], [0, 0]], ctx)) == 0.0


def test_spectral_radius_dominated_by_omega():
    for seed in range(30):
        _, t = random_member(3, 2, seed)
        assert a_spectral_radius(t) <= a_numerical_radius(t) + SLACK


def test_spectral_radius_commutativity():
    for seed in range(25):
        ctx = gen_psd(3, 2, seed)
        t = gen_compatible(ctx, seed + 1)
        s = gen_compatible(ctx, seed + 2)
        ts = Operator(t.t @ s.t, ctx)
        st = Operator(s.t @ t.t, ctx)
        r1, r2 = a_spectral_radius(ts), a_spectral_radius(st)
        assert abs(r1 - r2) <= SLACK * (1.0 + r1)


def test_gelfand_envelope_dominates_and_converges():
    for seed in range(15):
        ctx, t = random_member(3, 3, seed)
        env = gelfand_envelope(t)
        r = a_spectral_radius(t)
        assert np.all(env >= r - 1e-9 * (1.0 + r))
        assert np.all(np.diff(env) <= 1e-9 * (1.0 + env[0]))
        # full-rank ginibre reductions are diagonalizable with moderate
        # eigenvector conditioning, so power 64 sits within 5 percent
        assert env[-1] <= r * 1.05 + 1e-6


# ---------------------------------------------------------------- offdiag


def test_offdiag_identity_pair():
    ctx = make_context(np.eye(2))
    eye = Operator(np.eye(2), ctx)
    assert omega_offdiag(eye, eye) == pytest.approx(1.0)


def test_offdiag_zero_partner_gives_half_norm():
    ctx = make_context(np.eye(2))
    t = Operator([[0, 3], [0, 0]], ctx)
    z = Operator(np.zeros((2, 2)), ctx)
    assert omega_offdiag(t, z) == pytest.approx(0.5 * a_op_norm(t))


def test_offdiag_closed_form_cosine():
    ctx = make_context(np.eye(2))
    t = Operator([[0, 1], [0, 0]], ctx)
    s = Operator([[0, 0], [1, 0]], ctx)
    assert omega_offdiag(t, s) == pytest.approx(1.0)


def test_offdiag_symmetry():
    for seed in range(20):
        ctx = gen_psd(3, 2, seed)
        t = gen_compatible(ctx, seed + 5)
        s = gen_compatible(ctx, seed + 6)
        v1 = omega_offdiag(t, s)
        v2 = omega_offdiag(s, t)
        assert abs(v1 - v2) <= SLACK * (1.0 + v1)


@pytest.mark.parametrize(
    "tol",
    [ToleranceConfig(), ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7)],
    ids=["default", "campaign"],
)
@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_offdiag_pair_with_itself_is_the_numerical_radius(ensemble, tol):
    # (1/2) sup ||e^{it} T + e^{-it} T^#||_A = sup ||Re_A(e^{it} T)||_A = omega_A(T),
    # so the bounds read the diagonal radii off the i = j pair problems
    for n in range(1, 9):
        for rank in sorted({n, max(1, n // 2)}):
            _, t = random_member(n, rank, seed=10 * n + rank, ensemble=ensemble)
            omega = a_numerical_radius(t, tol)
            assert abs(omega_offdiag(t, t, tol) - omega) <= 1e-13 * (1.0 + omega)


def test_offdiag_requires_membership_of_both_operands():
    from semihilbert import NotInBA

    ctx = make_context(np.diag([1.0, 0.0]))
    bad = Operator([[0, 1], [0, 0]], ctx)
    good = Operator([[1, 0], [3, 7]], ctx)
    with pytest.raises(NotInBA):
        omega_offdiag(bad, good)
    with pytest.raises(NotInBA):
        omega_offdiag(good, bad)


def test_offdiag_average_norm_bound():
    for seed in range(20):
        ctx = gen_psd(3, 2, seed)
        t = gen_compatible(ctx, seed + 5)
        s = gen_compatible(ctx, seed + 6)
        assert omega_offdiag(t, s) <= 0.5 * (a_op_norm(t) + a_op_norm(s)) + SLACK
