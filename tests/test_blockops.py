"""Lifting, block assembly, block adjoints, permutations and structured norms."""

from dataclasses import replace

import numpy as np
import pytest

from semihilbert import (
    BadIndex,
    BlockNotInBA,
    DimensionMismatch,
    GenSpec,
    NotABounded,
    Operator,
    RaggedBlocks,
    a_adjoint,
    a_numerical_radius,
    a_op_norm,
    a_spectral_radius,
    antidiagonal_block_matrix,
    assemble,
    block_sharp,
    classical_spectral_radius,
    diagonal_block_matrix,
    flatten,
    hat_matrix,
    lift,
    make_context,
    omega_offdiag,
    semi_norm,
    split_blocks,
    structured_norms,
    structured_omega,
    u_k,
)
from semihilbert.core import spectral_norm
from semihilbert.generators import ENSEMBLES, gen_block_matrix, gen_compatible, gen_psd

from conftest import block_matrix_sweep, weight_oracle

SLACK = 1e-8


def random_block_matrix(d, n, rank, seed, ensemble="ginibre"):
    ctx = gen_psd(n, rank, seed)
    grid = [[gen_compatible(ctx, 100 * seed + d * i + j, ensemble).t for j in range(d)] for i in range(d)]
    return assemble(grid, ctx)


# -------------------------------------------------------------------- lift


def test_lift_diagonal_layout():
    ctx = make_context(np.diag([1.0, 0.0]))
    lifted = lift(ctx, 2)
    assert np.allclose(lifted.a, np.diag([1.0, 0.0, 1.0, 0.0]))


def test_lift_rank_and_norm():
    ctx = gen_psd(3, 2, seed=4)
    lifted = lift(ctx, 3)
    assert lifted.rank == 3 * ctx.rank
    assert lifted.norm == pytest.approx(ctx.norm)


def test_lift_embeds_caches_exactly():
    ctx = gen_psd(3, 2, seed=9)
    lifted = lift(ctx, 2)
    eye = np.eye(2)
    assert np.array_equal(lifted.a, np.kron(eye, ctx.a))
    # the eigenpairs are the base ones tiled, columns sorted by descending eigenvalue
    tiled = np.tile(ctx.eigvals, 2)
    order = np.argsort(-tiled, kind="stable")
    assert np.array_equal(lifted.eigvecs, np.kron(eye, ctx.eigvecs)[:, order])
    assert np.array_equal(lifted.eigvals, tiled[order])
    assert np.all(np.diff(lifted.eigvals) <= 0)
    # the range spectrum that reduce compresses with is the base one, tiled
    r = ctx.rank
    assert np.array_equal(lifted.eigvals[: 2 * r], np.sort(np.tile(ctx.eigvals[:r], 2))[::-1])


# -------------------------------------------------------- assemble / flatten


def test_flatten_single_block_is_identity_embedding():
    ctx = gen_psd(2, 2, seed=1)
    t = gen_compatible(ctx, 2)
    bm = assemble(t.t[None, None], ctx)
    assert np.array_equal(flatten(bm).t, t.t)


def test_zero_blocks_have_zero_radius():
    ctx = make_context(np.eye(2))
    bm = assemble(np.zeros((2, 2, 2, 2)), ctx)
    assert a_numerical_radius(flatten(bm)) == 0.0


def test_flatten_row_major_tiles_entrywise():
    ctx = make_context(np.eye(2))
    blocks = np.arange(16, dtype=complex).reshape(2, 2, 2, 2)
    flat = flatten(assemble(blocks, ctx)).t
    for i in range(2):
        for j in range(2):
            tile = flat[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            assert np.array_equal(tile, blocks[i, j])


def test_split_inverts_flatten():
    bm = random_block_matrix(3, 2, 2, seed=8)
    again = split_blocks(flatten(bm).t, 3)
    assert np.array_equal(again, bm.blocks)


def test_split_rejects_nonpositive_block_count():
    with pytest.raises(BadIndex):
        split_blocks(np.eye(4), 0)


@pytest.mark.parametrize("d", [1.5, 2.0, True])
def test_block_count_must_be_an_integer(d):
    with pytest.raises(BadIndex, match=rf"d must be an integer of at least 1, got {d!r}"):
        split_blocks(np.eye(4), d)
    with pytest.raises(BadIndex, match=rf"d must be an integer of at least 1, got {d!r}"):
        lift(make_context(np.eye(2)), d)


def test_ragged_blocks_rejected():
    ctx = make_context(np.eye(2))
    with pytest.raises(RaggedBlocks):
        assemble([[np.eye(2), np.eye(3)], [np.eye(3), np.eye(2)]], ctx)
    with pytest.raises(RaggedBlocks):
        assemble(np.zeros((2, 3, 2, 2)), ctx)


# ------------------------------------------------------------- block sharp


def test_block_sharp_identity_weight_is_grid_conjugate_transpose():
    bm = random_block_matrix(2, 2, 2, seed=3)
    ctx = make_context(np.eye(2))
    bm = assemble(bm.blocks, ctx)
    sharped = block_sharp(bm)
    for i in range(2):
        for j in range(2):
            assert np.allclose(sharped.blocks[i, j], bm.blocks[j, i].conj().T)


def test_block_sharp_diagonal_case():
    ctx = gen_psd(2, 1, seed=5)
    t1 = gen_compatible(ctx, 6)
    t2 = gen_compatible(ctx, 7)
    bm = diagonal_block_matrix([t1, t2])
    sharped = block_sharp(bm)
    assert np.allclose(sharped.blocks[0, 0], a_adjoint(t1).t)
    assert np.allclose(sharped.blocks[1, 1], a_adjoint(t2).t)
    assert np.allclose(sharped.blocks[0, 1], 0.0)


def sharp_route_gap(bm, sharp=None):
    """Distance between the flattened blockwise adjoint (``block_sharp(bm)``
    unless ``sharp`` is given) and the lifted adjoint of the flattened
    operator, and the slack for it.

    Both routes compute ``A^+ T^* A`` on range(A), whose rounding is a few eps
    times ``||T||`` and the condition number of the weight on its range.
    """
    ctx, flat = bm.base_ctx, flatten(bm)
    blockwise = flatten(block_sharp(bm) if sharp is None else sharp).t
    cond = ctx.eigvals[0] / ctx.eigvals[ctx.rank - 1]
    gap = spectral_norm(blockwise - a_adjoint(flat).t)
    return gap, 16.0 * np.finfo(float).eps * cond * spectral_norm(flat.t)


def test_block_sharp_agrees_with_lifted_adjoint():
    for ensemble in ENSEMBLES:
        for bm in block_matrix_sweep(ensemble):
            gap, slack = sharp_route_gap(bm)
            assert gap <= slack, (ensemble, bm.d, bm.n, bm.base_ctx.rank)


def test_sharp_route_comparison_flags_disagreeing_routes():
    bm = gen_block_matrix(GenSpec(n=3, d=3, rank=2, seed=4))
    sharp = block_sharp(bm)
    gap, slack = sharp_route_gap(bm, replace(sharp, blocks=sharp.blocks + 1e-10))
    assert gap > slack


def test_block_sharp_names_offending_block():
    ctx = make_context(np.diag([1.0, 0.0]))
    grid = np.zeros((2, 2, 2, 2), dtype=complex)
    grid[1, 0] = np.array([[0, 1], [0, 0]])  # maps null into range
    bm = assemble(grid, ctx)
    with pytest.raises(BlockNotInBA) as err:
        block_sharp(bm)
    assert err.value.index == (1, 0)


# ------------------------------------------------------------ permutations


def test_u2_swap_pattern():
    ctx = make_context(np.eye(2))
    bm = u_k(2, 2, ctx)
    eye = np.eye(2)
    assert np.array_equal(bm.blocks[0, 1], eye) and np.array_equal(bm.blocks[1, 0], eye)
    assert np.all(bm.blocks[0, 0] == 0) and np.all(bm.blocks[1, 1] == 0)


def test_u2_of_three_pattern():
    ctx = make_context(np.eye(2))
    bm = u_k(2, 3, ctx)
    eye = np.eye(2)
    expected_ones = {(0, 1), (1, 0), (2, 2)}
    for i in range(3):
        for j in range(3):
            target = eye if (i, j) in expected_ones else np.zeros((2, 2))
            assert np.array_equal(bm.blocks[i, j], target)


def test_u_k_sharp_is_projected_permutation():
    for d, k in ((2, 2), (3, 2), (4, 3), (4, 4)):
        ctx = gen_psd(3, 2, seed=d * 10 + k)
        bm = u_k(k, d, ctx)
        flat = flatten(bm)
        sharp = a_adjoint(flat).t
        _, proj, _ = weight_oracle(bm.lifted_ctx.a)
        projected = proj @ flat.t
        assert spectral_norm(sharp - projected) <= 1e-12 * (1.0 + 1.0)
        # double application recovers the lifted projection
        assert spectral_norm(sharp @ flat.t - proj) <= 1e-12


def test_u_k_is_weighted_unitary():
    ctx = gen_psd(2, 1, seed=13)
    bm = u_k(2, 3, ctx)
    flat = flatten(bm)
    sharp = a_adjoint(flat)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        ref = semi_norm(x, bm.lifted_ctx)
        assert abs(semi_norm(flat.t @ x, bm.lifted_ctx) - ref) <= 1e-10 * (1 + ref)
        assert abs(semi_norm(sharp.t @ x, bm.lifted_ctx) - ref) <= 1e-10 * (1 + ref)


def test_u_k_bad_index():
    ctx = make_context(np.eye(2))
    with pytest.raises(BadIndex):
        u_k(1, 3, ctx)
    with pytest.raises(BadIndex):
        u_k(4, 3, ctx)


def test_conjugation_by_u_k_preserves_radius():
    for seed in range(10):
        bm = random_block_matrix(3, 2, 2, seed)
        perm = flatten(u_k(2, 3, bm.base_ctx))
        flat = flatten(bm)
        conj = Operator(a_adjoint(perm).t @ flat.t @ perm.t, bm.lifted_ctx)
        w1 = a_numerical_radius(flat)
        w2 = a_numerical_radius(conj)
        assert abs(w1 - w2) <= SLACK * (1.0 + w1)


# -------------------------------------------------------- structured shapes


def test_structured_norms_diagonal_example():
    ctx = make_context(np.eye(2))
    t2 = Operator(2 * np.eye(2), ctx)
    t5 = Operator(np.diag([5.0, 0.0]), ctx)
    assert structured_norms([t2, t5], "diagonal") == pytest.approx(5.0)
    assert structured_norms([t2, t5], "antidiagonal") == pytest.approx(5.0)


def test_structured_entries_must_share_one_weight():
    # the same matrix is a contraction for I and has seminorm 2 for diag(4, 1)
    t1 = Operator([[0, 1], [0, 0]], make_context(np.eye(2)))
    t2 = Operator([[0, 1], [0, 0]], make_context(np.diag([4.0, 1.0])))
    for entries in ([t1, t2], [t2, t1]):
        with pytest.raises(DimensionMismatch):
            structured_norms(entries, "diagonal")
        with pytest.raises(DimensionMismatch):
            structured_omega(entries)
        with pytest.raises(DimensionMismatch):
            diagonal_block_matrix(entries)
        with pytest.raises(DimensionMismatch):
            antidiagonal_block_matrix(entries)
    with pytest.raises(DimensionMismatch):
        diagonal_block_matrix([t1, t1], ctx=t2.ctx)
    assert structured_norms([t2, t2], "diagonal") == pytest.approx(2.0)


def test_structured_norms_names_unbounded_entry():
    ctx = make_context(np.diag([1.0, 0.0]))
    good = Operator(np.eye(2), ctx)
    bad = Operator([[0, 1], [0, 0]], ctx)  # maps null into range
    with pytest.raises(NotABounded, match="entry 1 "):
        structured_norms([good, bad, good], "diagonal")


def test_hat_matrix_names_unbounded_block():
    ctx = make_context(np.diag([1.0, 0.0]))
    grid = np.zeros((3, 3, 2, 2), dtype=complex)
    grid[0, 0] = np.eye(2)
    grid[2, 1] = grid[2, 2] = np.array([[0, 1], [0, 0]])  # map null into range
    with pytest.raises(NotABounded, match=r"block \(2, 1\) "):
        hat_matrix(assemble(grid, ctx))


def test_structured_matches_assembled():
    for seed in range(12):
        ctx = gen_psd(2, 2 - seed % 2, seed)
        entries = [gen_compatible(ctx, seed + 20 + i) for i in range(3)]
        diag = diagonal_block_matrix(entries)
        anti = antidiagonal_block_matrix(entries)
        assert abs(structured_norms(entries, "diagonal") - a_op_norm(flatten(diag))) <= SLACK
        assert abs(structured_norms(entries, "antidiagonal") - a_op_norm(flatten(anti))) <= SLACK
        assert abs(structured_omega(entries) - a_numerical_radius(flatten(diag))) <= SLACK


def test_antidiagonal_layout_top_right_first():
    ctx = make_context(np.eye(2))
    entries = [Operator((i + 1) * np.eye(2), ctx) for i in range(3)]
    bm = antidiagonal_block_matrix(entries)
    assert np.array_equal(bm.blocks[0, 2], np.eye(2))
    assert np.array_equal(bm.blocks[1, 1], 2 * np.eye(2))
    assert np.array_equal(bm.blocks[2, 0], 3 * np.eye(2))


# ------------------------------------------------------------- hat matrix


def test_hat_matrix_zero():
    ctx = make_context(np.eye(2))
    bm = assemble(np.zeros((2, 2, 2, 2)), ctx)
    assert np.array_equal(hat_matrix(bm), np.zeros((2, 2)))


def test_hat_matrix_diagonal_consistency():
    ctx = gen_psd(2, 2, seed=21)
    entries = [gen_compatible(ctx, 22), gen_compatible(ctx, 23)]
    bm = diagonal_block_matrix(entries)
    hat = hat_matrix(bm)
    assert hat[0, 1] == 0.0 and hat[1, 0] == 0.0
    assert spectral_norm(hat) == pytest.approx(max(a_op_norm(e) for e in entries))


def test_hat_matrix_dominates_seminorm():
    for seed in range(15):
        bm = random_block_matrix(3, 2, 2, seed)
        assert a_op_norm(flatten(bm)) <= spectral_norm(hat_matrix(bm)) + SLACK


def test_hat_matrix_dominates_spectral_radius():
    for seed in range(15):
        bm = random_block_matrix(2, 3, 2, seed)
        lhs = a_spectral_radius(flatten(bm))
        rhs = classical_spectral_radius(hat_matrix(bm))
        assert lhs <= rhs + SLACK


# ------------------------------------------------------ offdiagonal exchange


def test_offdiag_block_exchange_equality():
    for seed in range(10):
        ctx = gen_psd(2, 2, seed)
        t = gen_compatible(ctx, seed + 40)
        s = gen_compatible(ctx, seed + 41)
        n = ctx.dim
        grid_ts = np.zeros((2, 2, n, n), dtype=complex)
        grid_ts[0, 1], grid_ts[1, 0] = t.t, s.t
        grid_st = np.zeros((2, 2, n, n), dtype=complex)
        grid_st[0, 1], grid_st[1, 0] = s.t, t.t
        w_ts = a_numerical_radius(flatten(assemble(grid_ts, ctx)))
        w_st = a_numerical_radius(flatten(assemble(grid_st, ctx)))
        w_formula = omega_offdiag(t, s)
        assert abs(w_ts - w_st) <= SLACK * (1.0 + w_ts)
        assert abs(w_ts - w_formula) <= SLACK * (1.0 + w_ts)
