"""The seven bound evaluators and the combined report."""

import numpy as np
import pytest

from semihilbert import (
    BOUND_KEYS,
    BlockNotInBA,
    InstanceWork,
    Operator,
    a_numerical_radius,
    a_op_norm,
    assemble,
    classical_numerical_radius,
    diagonal_block_matrix,
    evaluate_all,
    flatten,
    make_context,
    omega_offdiag,
    reduce,
)
from semihilbert.config import DEFAULT_TOL, ToleranceConfig
from semihilbert.core import spectral_norm
from semihilbert.generators import ENSEMBLES, gen_compatible, gen_psd
from semihilbert.radii import _DEFECTIVE_GUARD, reduced_spectral_radius, validated_radius_batch

from conftest import CAMPAIGN_TOL, block_matrix_sweep
from test_blockops import random_block_matrix

SLACK = 1e-8


@pytest.fixture(scope="module")
def witness():
    """d = 2 with a lone identity in the top-right corner, identity weight."""
    ctx = make_context(np.eye(2))
    grid = np.zeros((2, 2, 2, 2), dtype=complex)
    grid[0, 1] = np.eye(2)
    return assemble(grid, ctx)


def test_witness_values_are_tight(witness):
    assert a_numerical_radius(flatten(witness)) == pytest.approx(0.5, abs=1e-9)
    work = InstanceWork(witness)
    assert work.thf1() == pytest.approx(0.5, abs=1e-9)
    assert work.r2() == pytest.approx(0.75, abs=1e-9)
    assert work.th2() == pytest.approx(0.5, abs=1e-9)
    assert work.prior() == pytest.approx(0.5, abs=1e-9)
    assert work.diag_offdiag() == pytest.approx(0.5, abs=1e-9)
    assert work.re_im() == pytest.approx(np.sqrt(2) / 2, abs=1e-9)
    assert work.maxdiag() == pytest.approx(0.5, abs=1e-9)


def test_zero_matrix_floors():
    ctx = make_context(np.eye(2))
    work = InstanceWork(assemble(np.zeros((2, 2, 2, 2)), ctx))
    assert work.thf1() == 0.0
    assert work.r2() == pytest.approx(0.5)  # nonzero floor d / 4
    assert work.diag_offdiag() == 0.0
    assert work.re_im() == 0.0
    assert work.maxdiag() == 0.0


def test_scalar_block_r2():
    ctx = make_context(np.eye(1))
    bm = assemble(np.ones((1, 1, 1, 1)), ctx)
    assert InstanceWork(bm).r2() == pytest.approx(1.0)
    assert a_numerical_radius(flatten(bm)) == pytest.approx(1.0)


def test_diagonal_bounds_collapse_to_maxima():
    ctx = gen_psd(2, 2, seed=31)
    entries = [gen_compatible(ctx, 32), gen_compatible(ctx, 33)]
    bm = diagonal_block_matrix(entries)
    omegas = [a_numerical_radius(e) for e in entries]
    norms = [a_op_norm(e) for e in entries]
    omega = a_numerical_radius(flatten(bm))
    work = InstanceWork(bm)
    assert abs(work.th2() - max(omegas)) <= SLACK
    assert abs(work.prior() - max(omegas)) <= SLACK
    assert abs(work.maxdiag() - max(omegas)) <= SLACK
    assert abs(max(omegas) - omega) <= SLACK
    assert work.thf1() >= sum(norms) - SLACK
    assert abs(work.diag_offdiag() - sum(omegas)) <= SLACK


def test_prior_all_equal_blocks_pattern():
    # blocks all equal to a matrix with seminorm 1 and radius 1/2
    ctx = make_context(np.eye(2))
    j = np.array([[0, 1], [0, 0]], dtype=complex)
    bm = assemble(np.broadcast_to(j, (2, 2, 2, 2)).copy(), ctx)
    # comparison matrix is [[1/2, 1], [1, 1/2]]; its radius is 3/2
    assert InstanceWork(bm).prior() == pytest.approx(1.5, abs=1e-9)


def test_re_im_hermitian_single_block_is_tight():
    ctx = make_context(np.eye(2))
    bm = assemble(np.diag([1.0, -1.0]).reshape(1, 1, 2, 2), ctx)
    assert InstanceWork(bm).re_im() == pytest.approx(1.0, abs=1e-9)
    assert a_numerical_radius(flatten(bm)) == pytest.approx(1.0, abs=1e-9)


def test_th2_refines_prior():
    for seed in range(20):
        work = InstanceWork(random_block_matrix(3, 2, 2, seed))
        assert work.th2() <= work.prior() + SLACK


def test_th2_is_top_eigenvalue_of_symmetric_comparison_matrix():
    fine = ToleranceConfig(theta_samples=4096)
    for seed in range(10):
        bm = random_block_matrix(2 + seed % 3, 2, 1 + seed % 2, seed)
        work = InstanceWork(bm, DEFAULT_TOL)
        s = work.pair_omegas
        th2 = work.th2()
        assert th2 == np.linalg.eigvalsh((s + s.T) / 2.0)[-1]
        # exact in exact arithmetic; eigensolver rounding is a few ulp
        assert th2 >= classical_numerical_radius(s, fine) - 1e-14 * max(1.0, th2)


def lifted_permutation(bm) -> np.ndarray:
    """Permutation matrix P with ``reduce(flatten(bm)) = P^T G P`` for the
    block-major grid G of the blockwise reductions.

    Read off the lifted range eigenvectors, not from ``lift``'s sort: column
    k of P says which base range eigenvector in which block the k-th lifted
    one is, as coordinates in the block-major basis ``I_d (x) V_r``.
    """
    r = bm.base_ctx.rank
    basis = np.kron(np.eye(bm.d), bm.base_ctx.eigvecs[:, :r])
    coords = basis.conj().T @ bm.lifted_ctx.eigvecs[:, : bm.d * r]
    perm = np.rint(coords.real)
    assert np.abs(coords - perm).max() <= 1e-12
    assert np.array_equal(perm @ perm.T, np.eye(len(perm)))
    return perm


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_flat_reduced_is_the_lifted_reduction_permuted(ensemble):
    # the block-major grid of the R_ij is the reduction of the flattened
    # operator against the lifted weight up to a permutation similarity, so
    # the norm and the radii are the same; the spectral radius of a defective
    # reduction moves by more than rounding under the permutation, within
    # the guard reduced_spectral_radius allows for it
    eps = np.finfo(float).eps
    tol = CAMPAIGN_TOL
    for bm in block_matrix_sweep(ensemble):
        work = InstanceWork(bm, tol)
        flat = flatten(bm)
        lifted = reduce(flat, tol)
        perm = lifted_permutation(bm)
        size = spectral_norm(lifted) + spectral_norm(flat.t)
        case = (bm.d, bm.n, bm.base_ctx.rank, size)
        assert np.abs(perm.T @ work.flat_reduced @ perm - lifted).max() <= 4 * eps * size, case
        assert abs(spectral_norm(work.flat_reduced) - spectral_norm(lifted)) <= 8 * eps * size, case
        grid_omega, lifted_omega = validated_radius_batch(np.stack([work.flat_reduced, lifted]), tol)
        assert abs(grid_omega - lifted_omega) <= 16 * eps * size, case
        rho_gap = reduced_spectral_radius(work.flat_reduced, tol)[0] - reduced_spectral_radius(lifted, tol)[0]
        assert abs(rho_gap) <= _DEFECTIVE_GUARD * size, case


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_pair_radii_are_the_lone_offdiag_radii_in_both_orders(ensemble):
    # each pair i <= j is searched once and fills both entries, so the matrix
    # is exactly symmetric; the (j, i) objective is the conjugate transpose of
    # the (i, j) one, so a lone omega_offdiag of either order agrees up to
    # eigensolver rounding: at most 2.35 eps (||R_ij|| + ||R_ji||) measured
    # over the four ensembles
    eps = np.finfo(float).eps
    for bm in block_matrix_sweep(ensemble):
        work = InstanceWork(bm, CAMPAIGN_TOL)
        pairs = work.pair_omegas
        assert np.array_equal(pairs, pairs.T)
        for i, j in zip(*np.triu_indices(bm.d)):
            t_ij, t_ji = (Operator(bm.blocks[k, m], bm.base_ctx) for k, m in ((i, j), (j, i)))
            size = work.norms[i, j] + work.norms[j, i]
            case = (bm.d, bm.n, bm.base_ctx.rank, i, j, size)
            for t, s in ((t_ij, t_ji), (t_ji, t_ij)):
                assert abs(pairs[i, j] - omega_offdiag(t, s, CAMPAIGN_TOL)) <= 16 * eps * size, case


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_single_block_bounds_are_its_pair_radius(ensemble):
    work = InstanceWork(random_block_matrix(1, 4, 2, seed=3, ensemble=ensemble))
    (pair,) = work.pair_omegas.ravel()
    assert work.th2() == work.maxdiag() == work.prior() == pair
    assert abs(pair - work.omega) <= 1e-13 * (1.0 + work.omega)


@pytest.mark.parametrize("n, rank", [(2, 1), (3, 1), (4, 2)])
def test_row_terms_of_blocks_with_zero_reduction_vanish(n, rank):
    # off-diagonal blocks V b V^* with b[:r, :] = 0 reduce to zero, so B6 is the
    # largest diagonal radius and B1 the sum of the diagonal seminorms; a square
    # root of the rounding in an n x n block product would inflate both
    d = 3
    for seed in range(20):
        rng = np.random.default_rng(1000 * n + seed)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v, _ = np.linalg.qr(z)
        lam = np.zeros(n)
        lam[:rank] = rng.uniform(0.1, 2.0, size=rank)
        ctx = make_context((v * lam) @ v.conj().T)
        grid = np.zeros((d, d, n, n), dtype=complex)
        for i in range(d):
            for j in range(d):
                if i == j:
                    grid[i, i] = gen_compatible(ctx, 7 * seed + i).t
                else:
                    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    b[:rank, :] = 0.0
                    grid[i, j] = v @ b @ v.conj().T
        work = InstanceWork(assemble(grid, ctx))
        slack = 1e-13 * (1.0 + work.omega)
        assert abs(work.maxdiag() - work.diag_omegas.max()) <= slack
        assert abs(work.thf1() - np.diagonal(work.norms).sum()) <= slack


def test_offdiag_refinement_is_strict_somewhere():
    strict = 0
    for seed in range(10):
        work = InstanceWork(random_block_matrix(2, 2, 2, seed))
        if work.th2() < work.prior() - 1e-3:
            strict += 1
    assert strict > 0


def test_all_bounds_hold_on_random_instances():
    for seed in range(12):
        for d, n, rank in ((2, 2, 2), (2, 3, 2), (3, 2, 1), (3, 3, 3)):
            bm = random_block_matrix(d, n, rank, seed)
            rep = evaluate_all(bm, instance_id=f"case-{d}-{n}-{rank}-{seed}")
            assert rep.all_hold, rep.holds
            assert rep.refinement_ok
            assert set(rep.bounds) == set(BOUND_KEYS)
            assert all(rep.gaps[k] >= -SLACK * (1 + rep.omega) for k in BOUND_KEYS)


def test_sparse_and_selfadjoint_ensembles_hold():
    for seed in range(6):
        for ens in ("sparse", "a-selfadjoint", "nilpotent-lift"):
            bm = random_block_matrix(2, 3, 2, seed, ensemble=ens)
            rep = evaluate_all(bm)
            assert rep.all_hold and rep.refinement_ok


def test_scale_covariance():
    bm = random_block_matrix(2, 2, 2, seed=77)
    rep1 = evaluate_all(bm)
    c = 3.5
    scaled = assemble(c * bm.blocks, bm.base_ctx)
    rep2 = evaluate_all(scaled)
    assert rep2.omega == pytest.approx(c * rep1.omega, rel=1e-8)
    for key in ("B1_thf1", "B3_th2", "B4_diag_offdiag", "B5_re_im", "B6_maxdiag", "B7_prior"):
        assert rep2.bounds[key] == pytest.approx(c * rep1.bounds[key], rel=1e-8), key
    # B2 mixes an additive floor with a quadratic term, so it is not homogeneous
    assert abs(rep2.bounds["B2_r2"] - c * rep1.bounds["B2_r2"]) > 1e-3


def test_nonnegative_radius_halved_row_column_sum():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for _ in range(15):
            t = rng.random((d, d))
            direct = classical_numerical_radius(t)
            sym = np.abs(np.linalg.eigvalsh(t + t.T)).max() / 2.0
            assert abs(direct - sym) <= SLACK * (1.0 + direct)


def test_bounds_reject_nonmember_blocks():
    ctx = make_context(np.diag([1.0, 0.0]))
    grid = np.zeros((2, 2, 2, 2), dtype=complex)
    grid[0, 1] = np.array([[0, 1], [0, 0]])
    bm = assemble(grid, ctx)
    with pytest.raises(BlockNotInBA) as err:
        InstanceWork(bm)
    assert err.value.index == (0, 1)
    with pytest.raises(BlockNotInBA, match=r"block \(0, 1\) ") as err:
        evaluate_all(bm)
    assert err.value.index == (0, 1)


def test_report_structure_and_timing(witness):
    rep = evaluate_all(witness, instance_id="witness")
    assert rep.instance_id == "witness"
    assert rep.min_gap == pytest.approx(0.0, abs=1e-9)
    assert set(rep.timing) == set(BOUND_KEYS) | {"omega"}
    assert all(v >= 0 for v in rep.timing.values())
