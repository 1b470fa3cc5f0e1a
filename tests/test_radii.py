"""Classical and weighted radii and the circle search."""

import numpy as np
import pytest

from semihilbert import (
    GenSpec,
    InstanceWork,
    Operator,
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
    structured_omega,
)
from semihilbert.generators import (
    ENSEMBLES,
    gen_a_unitary,
    gen_block_matrix,
    gen_compatible,
    gen_psd,
)
from semihilbert.core import spectral_norm
from semihilbert.circle import radius_certificate
from semihilbert.radii import (
    _DEFECTIVE_GUARD,
    _radius_search,
    reduced_spectral_radius,
    validated_radius_batch,
)

from conftest import CAMPAIGN_TOL, COARSE_TOL, a_unit_samples, random_member

SLACK = 1e-8


# ------------------------------------------------------------- classical


def test_classical_radius_nilpotent_block():
    assert classical_numerical_radius([[0, 1], [0, 0]]) == pytest.approx(0.5)


def test_classical_radius_hermitian():
    assert classical_numerical_radius(np.diag([1.0, -1.0])) == pytest.approx(1.0)


def test_classical_radius_montecarlo_crosscheck():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    result = classical_numerical_radius(m)
    rng = np.random.default_rng(12)
    z = rng.standard_normal((1_000_000, 2)) + 1j * rng.standard_normal((1_000_000, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    sampled = np.abs(np.einsum("ki,ij,kj->k", z.conj(), m, z)).max()
    assert result == pytest.approx(1.0)
    assert abs(result - sampled) < 1e-4
    assert result >= sampled - 1e-12


def test_classical_spectral_radius_cases():
    assert classical_spectral_radius([[0, 1], [0, 0]]) == 0.0
    assert classical_spectral_radius(np.diag([3.0, -5.0])) == pytest.approx(5.0)
    assert classical_spectral_radius([[0, 2], [3, 0]]) == pytest.approx(np.sqrt(6.0))


def test_classical_radii_of_an_empty_matrix_are_zero():
    empty = np.zeros((0, 0))
    assert classical_numerical_radius(empty) == 0.0
    assert classical_spectral_radius(empty) == 0.0
    assert spectral_norm(empty) == 0.0


def test_radii_are_python_floats():
    _, t = random_member(3, 2, seed=5)
    values = [
        a_numerical_radius(t),
        omega_offdiag(t, t),
        classical_numerical_radius(t.t),
        omega_real_part_sup(t),
        structured_omega([t, t]),
    ]
    assert all(type(v) is float for v in values)


def test_theta_grid_stability_on_regression_corpus():
    # doubling the grid must not move the result; includes a lifted-size matrix
    rng = np.random.default_rng(7)
    corpus = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (2, 3, 4, 12)]
    coarse = ToleranceConfig(theta_samples=1024)
    fine = ToleranceConfig(theta_samples=2048)
    for m in corpus:
        v1 = classical_numerical_radius(m, coarse)
        v2 = classical_numerical_radius(m, fine)
        assert abs(v1 - v2) < 1e-9 * (1.0 + abs(v1))


def test_theta_grid_stability_at_campaign_resolution():
    rng = np.random.default_rng(8)
    corpus = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (3, 8, 12)]
    fine = ToleranceConfig(theta_samples=256, theta_refine_tol=1e-7)
    for m in corpus:
        v1 = classical_numerical_radius(m, CAMPAIGN_TOL)
        v2 = classical_numerical_radius(m, fine)
        assert abs(v1 - v2) < 1e-9 * (1.0 + abs(v1))


# ------------------------------------------------- certified coarse search


def test_narrow_peak_missed_by_the_coarse_search_gets_the_full_grid_value():
    # the flattened reduction of this instance has a peak that 8 grid angles
    # and Newton miss, by 1.8e-4 relative; the certificate rejects the coarse
    # value, and the radius is the full grid's, bitwise
    spec = GenSpec(n=2, d=2, rank=2, ensemble="a-selfadjoint", seed=18)
    work = InstanceWork(gen_block_matrix(spec, CAMPAIGN_TOL), CAMPAIGN_TOL)
    reduced = work.flat_reduced[None]
    coarse = _radius_search(reduced, COARSE_TOL)
    full = _radius_search(reduced, CAMPAIGN_TOL)
    assert coarse[0] < full[0] * (1.0 - 1e-4)
    assert not radius_certificate(reduced, coarse)[0]
    assert validated_radius_batch(reduced, CAMPAIGN_TOL)[0] == full[0]
    assert work.omega == full[0]


def test_square_zero_reductions_fall_back_to_the_full_grid():
    # nilpotent-lift operators of rank 2 and a square-zero plain matrix have
    # disks for numerical ranges: none is certified, and each radius is
    # bitwise the full grid's
    ops = [random_member(4, 2, seed, ensemble="nilpotent-lift")[1] for seed in range(3)]
    square_zero = np.outer([1.0, 2.0j, 0.0], [2.0, 1.0j, 3.0])
    for tol in (CAMPAIGN_TOL, ToleranceConfig()):
        for reduced in [reduce(op, tol) for op in ops] + [square_zero]:
            full = _radius_search(reduced[None], tol)
            assert not radius_certificate(reduced[None], _radius_search(reduced[None], COARSE_TOL))[0]
            assert validated_radius_batch(reduced[None], tol)[0] == full[0]
        assert a_numerical_radius(ops[0], tol) == _radius_search(reduce(ops[0], tol)[None], tol)[0]
        assert classical_numerical_radius(square_zero, tol) == _radius_search(square_zero[None], tol)[0]


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_certified_radii_stay_within_rounding_of_the_full_grid(ensemble):
    # every radius is within 1e-14 relative of the full search's, at both
    # tolerances, whether its coarse value was certified or searched again
    for tol in (CAMPAIGN_TOL, ToleranceConfig()):
        for n in (2, 3, 5, 8):
            for rank in sorted({1, n // 2, n}):
                reduced = reduce(random_member(n, rank, seed=n + rank, ensemble=ensemble)[1], tol)[None]
                value, full = validated_radius_batch(reduced, tol)[0], _radius_search(reduced, tol)[0]
                assert value == pytest.approx(full, rel=1e-14, abs=0.0)


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
    assert np.allclose(reduce(t), [[1]])
    assert a_numerical_radius(t) == pytest.approx(1.0)


def test_route_agreement_on_members():
    for seed in range(25):
        _, t = random_member(4, 3, seed)
        primary = a_numerical_radius(t)
        alt = omega_real_part_sup(t)
        assert abs(primary - alt) <= 1e-9 * (1.0 + primary)


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


def test_spectral_radius_hands_back_the_norms_of_its_envelope():
    # the campaign's invariants read ||R|| and ||R^2||^{1/2} from the envelope
    for seed, ensemble in enumerate(ENSEMBLES):
        reduced = reduce(random_member(5, 4, seed, ensemble)[1])
        radius, envelope = reduced_spectral_radius(reduced, ToleranceConfig())
        assert radius == a_spectral_radius(random_member(5, 4, seed, ensemble)[1])
        assert envelope[0] == spectral_norm(reduced)
        # squared, since a nilpotent-lift R^2 is rounding and its root is not
        square = spectral_norm(reduced @ reduced)
        assert envelope[1] ** 2 == pytest.approx(square, rel=1e-14, abs=1e-15 * envelope[0] ** 2)


def test_gelfand_envelope_of_nearly_nilpotent_matrix_does_not_underflow():
    # T^3 = delta I, so rho = delta^(1/3) and ||T^64||^(1/64) = delta^(21/64);
    # unscaled, T^64 = delta^21 T underflows to zero and the cross-check fails
    delta = 1e-16
    t = np.diag([1.0, 1.0], 1)
    t[2, 0] = delta
    op = Operator(t, make_context(np.eye(3)))
    assert abs(gelfand_envelope(op)[-1] / delta ** (21 / 64) - 1.0) <= 1e-12
    assert abs(a_spectral_radius(op) / delta ** (1 / 3) - 1.0) <= 1e-6
    # the same on a sparse reduction whose eigenbasis block is a Jordan-3 chain
    work = InstanceWork(gen_block_matrix(GenSpec(n=6, d=1, rank=3, ensemble="sparse")))
    assert reduced_spectral_radius(work.flat_reduced, work.tol)[0] < 1e-5


@pytest.mark.xfail(
    strict=True,
    reason="eigvals of a Jordan-3 nilpotent reduction errs by about eps^(1/3) ||R||: "
    "5.04e-6 ||R|| where r_A is 0, above the Jordan-2 sized _DEFECTIVE_GUARD of 3.8e-6",
)
def test_jordan3_spectral_radius_stays_within_the_defective_guard():
    work = InstanceWork(gen_block_matrix(GenSpec(n=6, d=1, rank=3, ensemble="sparse", seed=0)))
    reduced = work.flat_reduced
    # the reduction is nilpotent of index 3: R^2 is of order ||R||^2, R^3 rounding
    assert np.abs(reduced @ reduced @ reduced).max() <= 1e-14 * spectral_norm(reduced) ** 3
    assert reduced_spectral_radius(reduced, work.tol)[0] <= _DEFECTIVE_GUARD * spectral_norm(reduced)


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
    [ToleranceConfig(), CAMPAIGN_TOL],
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
