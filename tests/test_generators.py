"""Instance generators: determinism, membership soundness, special ensembles."""

import numpy as np
import pytest

from semihilbert import (
    Operator,
    a_adjoint,
    a_numerical_radius,
    a_op_norm,
    a_spectral_radius,
    flatten,
    in_ba,
    semi_norm,
    u_k,
)
from semihilbert.core import spectral_norm
from semihilbert.generators import (
    GenSpec,
    gen_a_unitary,
    gen_block_matrix,
    gen_compatible,
    gen_psd,
)

from conftest import weight_oracle

SLACK = 1e-8


def test_gen_psd_full_rank():
    ctx = gen_psd(3, 3, seed=0)
    assert ctx.rank == 3
    assert np.all(ctx.eigvals >= 0.1 - 1e-12) and np.all(ctx.eigvals <= 2.0 + 1e-12)


def test_gen_psd_rank_one_projection():
    ctx = gen_psd(2, 1, seed=1)
    assert ctx.rank == 1
    assert np.trace(weight_oracle(ctx.a)[1]).real == pytest.approx(1.0, abs=1e-10)


def test_gen_psd_deterministic():
    a1 = gen_psd(4, 2, seed=123).a
    a2 = gen_psd(4, 2, seed=123).a
    assert np.array_equal(a1, a2)


def test_gen_compatible_always_member():
    for seed in range(40):
        ctx = gen_psd(3, 1 + seed % 3, seed)
        for ensemble in ("ginibre", "nilpotent-lift", "a-selfadjoint", "sparse"):
            op = gen_compatible(ctx, seed + 1000, ensemble)
            assert in_ba(op), (seed, ensemble)


def test_gen_compatible_rank_one_triangular_pattern():
    # with weight diag(1, 0) the eigenbasis is the standard basis and the
    # null -> range entry must vanish
    from semihilbert import make_context

    ctx = make_context(np.diag([1.0, 0.0]))
    for seed in range(10):
        op = gen_compatible(ctx, seed)
        assert abs(op.t[0, 1]) == 0.0


def test_nilpotent_lift_kills_weighted_square():
    for seed in range(40):
        ctx = gen_psd(4, 2 + seed % 3, seed)
        op = gen_compatible(ctx, seed + 5, "nilpotent-lift")
        resid = spectral_norm(ctx.a @ op.t @ op.t)
        scale = 1.0 + spectral_norm(op.t) ** 2
        assert resid <= 1e-10 * scale


def test_a_selfadjoint_triple_equality_per_draw():
    for seed in range(40):
        ctx = gen_psd(3, 2, seed)
        op = gen_compatible(ctx, seed + 5, "a-selfadjoint")
        prod = ctx.a @ op.t
        assert spectral_norm(prod - prod.conj().T) <= 1e-10 * (1 + spectral_norm(prod))
        vals = [a_op_norm(op), a_numerical_radius(op), a_spectral_radius(op)]
        assert max(vals) - min(vals) <= SLACK * (1.0 + max(vals))


def test_scale_parameter():
    ctx = gen_psd(3, 2, seed=9)
    base = gen_compatible(ctx, 9, "ginibre", scale=1.0)
    scaled = gen_compatible(ctx, 9, "ginibre", scale=2.5)
    assert np.allclose(scaled.t, 2.5 * base.t)


def test_gen_a_unitary_identity_weight_is_unitary():
    from semihilbert import make_context

    ctx = make_context(np.eye(3))
    u = gen_a_unitary(ctx, seed=4)
    assert spectral_norm(u.t @ u.t.conj().T - np.eye(3)) < 1e-10


def test_gen_a_unitary_isometries():
    rng = np.random.default_rng(17)
    for seed in range(15):
        ctx = gen_psd(4, 2 + seed % 3, seed)
        u = gen_a_unitary(ctx, seed)
        sharp = a_adjoint(u)
        for _ in range(20):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ref = semi_norm(x, ctx)
            assert abs(semi_norm(u.t @ x, ctx) - ref) <= 1e-9 * (1 + ref)
            assert abs(semi_norm(sharp.t @ x, ctx) - ref) <= 1e-9 * (1 + ref)


def test_u_k_passes_unitary_probe_against_lifted_context():
    ctx = gen_psd(2, 1, seed=3)
    bm = u_k(3, 4, ctx)
    flat = flatten(bm)
    sharp = a_adjoint(flat)
    rng = np.random.default_rng(1)
    for _ in range(30):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        ref = semi_norm(x, bm.lifted_ctx)
        assert abs(semi_norm(flat.t @ x, bm.lifted_ctx) - ref) <= 1e-10 * (1 + ref)
        assert abs(semi_norm(sharp.t @ x, bm.lifted_ctx) - ref) <= 1e-10 * (1 + ref)


def test_unitary_conjugation_preserves_radius():
    for seed in range(15):
        ctx = gen_psd(3, 2, seed)
        t = gen_compatible(ctx, seed + 2)
        u = gen_a_unitary(ctx, seed + 3)
        conj = Operator(a_adjoint(u).t @ t.t @ u.t, ctx)
        w1, w2 = a_numerical_radius(t), a_numerical_radius(conj)
        assert abs(w1 - w2) <= SLACK * (1.0 + w1)


def test_gen_block_matrix_deterministic():
    spec = GenSpec(n=3, d=2, rank=2, ensemble="ginibre", seed=11)
    b1 = gen_block_matrix(spec)
    b2 = gen_block_matrix(spec)
    assert np.array_equal(b1.blocks, b2.blocks)
    assert np.array_equal(b1.base_ctx.a, b2.base_ctx.a)


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=2, d=2, rank=3)
    with pytest.raises(ValueError):
        GenSpec(n=2, d=0, rank=1)
    with pytest.raises(ValueError):
        GenSpec(n=2, d=2, rank=2, ensemble="unknown")
    with pytest.raises(ValueError):
        GenSpec(n=2, d=2, rank=2, scale=0.0)
