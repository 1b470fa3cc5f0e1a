"""Contexts, membership, adjoints and the reduction map."""

import json
import math

import numpy as np
import pytest

from semihilbert import (
    DEFAULT_TOL,
    ABoundednessWarning,
    DimensionMismatch,
    NotABounded,
    NotFinite,
    NotHermitian,
    NotInBA,
    NotPositive,
    Operator,
    ZeroOperator,
    a_adjoint,
    a_op_norm,
    assemble,
    classical_numerical_radius,
    classical_spectral_radius,
    in_ba,
    in_ba_half,
    make_context,
    reduce,
    semi_inner,
    semi_norm,
)
from semihilbert.core import adjoint_stack, first_failure, reduce_stack
from semihilbert.generators import ENSEMBLES, gen_compatible, gen_psd
from semihilbert.serialize import matrix_from_json

from conftest import a_unit_samples, random_member, weight_oracle

PENROSE_TOL = 1e-10
DOUGLAS_TOL = 1e-10
NORM_EQ_TOL = 1e-9
DIEZ_TOL = 1e-8
HOM_TOL = 1e-9
STAR_TOL = 1e-10
COMPRESS_TOL = 1e-13


# ---------------------------------------------------------------- contexts


def test_context_diagonal_rank_one():
    ctx = make_context(np.diag([2.0, 0.0]))
    assert ctx.rank == 1
    assert np.array_equal(ctx.eigvals, [2.0, 0.0])
    assert np.allclose(np.abs(ctx.eigvecs), np.eye(2))


def test_context_identity():
    ctx = make_context(np.eye(2))
    assert ctx.rank == 2
    assert np.array_equal(ctx.eigvals, [1.0, 1.0])
    assert np.allclose(ctx.eigvecs @ ctx.eigvecs.conj().T, np.eye(2))


def test_context_sqrt_against_independent_eigendecomposition():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    ctx = make_context(a)
    assert np.allclose(sorted(ctx.eigvals), [1.0, 3.0])
    # independent oracle: recompose the square root from numpy's eigh directly
    w, v = np.linalg.eigh(a)
    sqrt_oracle = (v * np.sqrt(w)) @ v.conj().T
    sqrt_a = (ctx.eigvecs * np.sqrt(ctx.eigvals)) @ ctx.eigvecs.conj().T
    assert np.linalg.norm(sqrt_a - sqrt_oracle, 2) < 1e-12
    assert np.linalg.norm(sqrt_a @ sqrt_a - a, 2) < 1e-12


def test_context_rejects_bad_input():
    with pytest.raises(NotHermitian):
        make_context(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotPositive):
        make_context(np.diag([1.0, -1.0]))
    with pytest.raises(ZeroOperator):
        make_context(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        make_context(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        make_context(np.zeros((0, 0)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_penrose_identities(n):
    for rank in range(1, n + 1):
        ctx = gen_psd(n, rank, seed=31 * n + rank)
        a = ctx.a
        pinv, proj, root = weight_oracle(a)
        scale = 1.0 + ctx.norm
        assert np.linalg.norm(a @ pinv @ a - a, 2) <= PENROSE_TOL * scale
        assert np.linalg.norm(pinv @ a @ pinv - pinv, 2) <= PENROSE_TOL * scale
        prod = a @ pinv
        assert np.linalg.norm(prod - prod.conj().T, 2) <= PENROSE_TOL * scale
        assert np.linalg.norm(prod - proj, 2) <= PENROSE_TOL * scale
        assert np.linalg.norm(root @ root - a, 2) <= PENROSE_TOL * scale
        # the package's adjoint of the identity is A^+ A, the range projection
        assert np.linalg.norm(adjoint_stack(ctx, np.eye(n)) - proj, 2) <= PENROSE_TOL * scale
        # the range eigenpairs that reduce compresses with
        v, w = ctx.eigvecs[:, :rank], ctx.eigvals[:rank]
        assert np.linalg.norm(v.conj().T @ v - np.eye(rank), 2) <= PENROSE_TOL
        assert np.linalg.norm((v * w) @ v.conj().T - a, 2) <= PENROSE_TOL


# ------------------------------------------------------------ inner product


def test_semi_inner_null_vector():
    ctx = make_context(np.diag([1.0, 0.0]))
    assert semi_inner([0, 5], [0, 5], ctx) == pytest.approx(0.0)
    assert semi_norm([0, 5], ctx) == pytest.approx(0.0)


def test_semi_inner_identity_reduces_to_standard():
    ctx = make_context(np.eye(2))
    assert semi_inner([1, 1j], [1, 0], ctx) == pytest.approx(1.0)


def test_semi_inner_offdiagonal_weight():
    ctx = make_context(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert semi_inner([1, 0], [0, 1], ctx) == pytest.approx(1.0)


def test_semi_inner_dimension_mismatch():
    ctx = make_context(np.eye(2))
    with pytest.raises(DimensionMismatch):
        semi_inner([1, 0, 0], [1, 0], ctx)


# -------------------------------------------------------------- membership


def test_membership_full_rank_always_true():
    ctx = gen_psd(3, 3, seed=5)
    rng = np.random.default_rng(6)
    t = Operator(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), ctx)
    assert in_ba(t) and in_ba_half(t)


def test_membership_violating_operator():
    ctx = make_context(np.diag([1.0, 0.0]))
    bad = Operator([[0, 1], [0, 0]], ctx)
    assert not in_ba(bad)
    assert not in_ba_half(bad)


def test_membership_null_preserving_operator():
    ctx = make_context(np.diag([1.0, 0.0]))
    good = Operator([[1, 0], [3, 7]], ctx)
    assert in_ba(good) and in_ba_half(good)


def test_in_ba_implies_in_ba_half():
    for seed in range(40):
        _, op = random_member(3, 2, seed)
        assert in_ba(op) and in_ba_half(op)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("half", [False, True])
def test_membership_flips_at_its_slack(half, scale):
    # plant the leak V_r^* T V_0 so that the residual ||Lambda_r^p V_r^* T V_0||,
    # from this test's own eigh, is 0.5 and then 2 times its slack
    # cmp_atol (1 + ||A||^p ||T||), with p = 1/2 for boundedness, 1 for the adjoint
    per_matrix = in_ba_half if half else in_ba
    power = 0.5 if half else 1.0
    for n, rank in ((3, 1), (4, 2)):
        seed = 10 * n + rank
        ctx = make_context(scale * gen_psd(n, rank, seed).a)
        w, v = np.linalg.eigh(ctx.a)
        w, v = w[::-1], v[:, ::-1]
        vr, v0, weight = v[:, :rank], v[:, rank:], w[:rank] ** power

        def residual(t):
            return np.linalg.norm(weight[:, None] * (vr.conj().T @ t @ v0), 2)

        def slack(t):
            return DEFAULT_TOL.cmp_atol * (1.0 + w[0] ** power * np.linalg.norm(t, 2))

        rng = np.random.default_rng(seed)
        base = gen_compatible(ctx, seed).t
        g = rng.standard_normal((rank, n - rank)) + 1j * rng.standard_normal((rank, n - rank))
        direction = vr @ g @ v0.conj().T
        planted = {}
        for factor in (0.5, 2.0):
            t = base
            for _ in range(4):  # ||T|| moves with the leak, so iterate to the fixed point
                t = base + factor * slack(t) / residual(direction) * direction
            assert residual(t) / slack(t) == pytest.approx(factor, rel=1e-6)
            planted[factor] = t
            inside = factor < 1.0
            assert per_matrix(Operator(t, ctx)) is inside
            assert first_failure(ctx, t, half=half) == (None if inside else ())
        stack = np.stack([planted[0.5], planted[2.0], planted[2.0]])
        assert first_failure(ctx, stack, half=half) == (1,)

        full = make_context(scale * gen_psd(n, n, seed).a)
        for t in (planted[2.0], 1e6 * planted[2.0]):
            assert in_ba(Operator(t, full)) and in_ba_half(Operator(t, full))
            assert first_failure(full, t, half=half) is None


# ----------------------------------------------------------------- adjoint


def test_adjoint_identity_weight_is_conjugate_transpose():
    ctx = make_context(np.eye(2))
    t = Operator([[0, 1], [0, 0]], ctx)
    assert np.allclose(a_adjoint(t).t, [[0, 0], [1, 0]])


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_reduction_of_adjoint_stack_is_conjugate_transpose(ensemble):
    """``reduce_stack(adjoint_stack(T)) = reduce_stack(T)^*`` for every T.

    Both sides are ``Lambda_r^{-1/2} V_r^* T^* V_r Lambda_r^{1/2}``, whether or
    not T admits a weighted adjoint, so a run-time comparison of the two can
    only measure rounding and never flags a membership failure.  It pins the
    formulas of ``adjoint_stack`` and ``reduce_stack`` instead: dropping the
    Lambda scaling or a conjugation breaks it.
    """
    rng = np.random.default_rng([70, ENSEMBLES.index(ensemble)])
    for n, rank in ((3, 1), (4, 2), (5, 5)):
        ctx = gen_psd(n, rank, rng)
        members = np.stack([gen_compatible(ctx, rng, ensemble).t for _ in range(4)])
        others = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
        if rank < n:  # generic matrices leak out of range(A)
            assert first_failure(ctx, others[0]) is not None
        w = ctx.eigvals[: ctx.rank]
        for stack in (members.reshape(2, 2, n, n), others):
            reduced = reduce_stack(ctx, stack)
            scale = np.linalg.norm(stack, 2, axis=(-2, -1)).max() * w.max() / w.min()
            np.testing.assert_allclose(
                reduce_stack(ctx, adjoint_stack(ctx, stack)),
                np.conj(np.swapaxes(reduced, -1, -2)),
                rtol=0.0,
                atol=1e-14 * scale,
            )


def test_adjoint_rank_deficient_by_hand():
    ctx = make_context(np.diag([1.0, 0.0]))
    t = Operator([[2, 0], [3, 4]], ctx)
    assert np.allclose(a_adjoint(t).t, [[2, 0], [0, 0]])


def test_adjoint_of_range_projection_is_itself():
    ctx = gen_psd(4, 2, seed=11)
    _, proj, _ = weight_oracle(ctx.a)
    p = Operator(proj, ctx)
    assert np.linalg.norm(a_adjoint(p).t - proj, 2) < 1e-12


def test_adjoint_requires_membership():
    ctx = make_context(np.diag([1.0, 0.0]))
    with pytest.raises(NotInBA):
        a_adjoint(Operator([[0, 1], [0, 0]], ctx))


@pytest.mark.parametrize("n,rank", [(2, 1), (3, 2), (4, 4), (4, 2)])
def test_adjoint_solves_weighted_equation(n, rank):
    for seed in range(25):
        ctx, op = random_member(n, rank, seed + 100 * n + rank)
        sharp = a_adjoint(op)
        scale = 1.0 + ctx.norm * np.linalg.norm(op.t, 2)
        assert np.linalg.norm(ctx.a @ sharp.t - op.t.conj().T @ ctx.a, 2) <= DOUGLAS_TOL * scale
        twice = a_adjoint(sharp)
        _, proj, _ = weight_oracle(ctx.a)
        compressed = proj @ op.t @ proj
        assert np.linalg.norm(twice.t - compressed, 2) <= DOUGLAS_TOL * scale
        assert abs(a_op_norm(sharp) - a_op_norm(op)) <= NORM_EQ_TOL * scale


def test_diez_identity():
    for seed in range(30):
        ctx, op = random_member(3, 2, seed)
        norm = a_op_norm(op)
        sharp = a_adjoint(op)
        prod = Operator(sharp.t @ op.t, ctx)
        scale = 1.0 + norm**2
        assert abs(norm**2 - a_op_norm(prod)) <= DIEZ_TOL * scale
        prod2 = Operator(op.t @ sharp.t, ctx)
        assert abs(norm**2 - a_op_norm(prod2)) <= DIEZ_TOL * scale


# --------------------------------------------------------------- reduction


def test_reduce_identity_weight():
    ctx = make_context(np.eye(2))
    t = Operator([[1, 2], [3, 4]], ctx)
    v = ctx.eigvecs
    assert np.allclose(reduce(t), v.conj().T @ t.t @ v)


def test_reduce_diagonal_by_hand():
    ctx = make_context(np.diag([4.0, 0.0]))
    t = Operator([[3, 0], [5, 6]], ctx)
    assert np.allclose(reduce(t), [[3]])


def test_reduce_of_projection():
    ctx = gen_psd(3, 2, seed=3)
    p = Operator(weight_oracle(ctx.a)[1], ctx)
    assert np.linalg.norm(reduce(p) - np.eye(ctx.rank), 2) < 1e-12


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_reduce_is_the_compression_of_the_similarity_image(ensemble):
    # A^{1/2} T (A^{1/2})^+ = V_r C V_r^*: the r x r compression C keeps the
    # singular values (up to zeros), the nonzero eigenvalues and the radius.
    # Both sides carry rounding of the unreduced T, so ||T|| scales the slack.
    for n in range(1, 9):
        for rank in range(1, n + 1):
            for scale in (1e-6, 1.0, 1e6):
                ctx = gen_psd(n, rank, seed=100 * n + rank)
                t = gen_compatible(ctx, 7 * n + rank, ensemble, scale)
                c = reduce(t)
                root = weight_oracle(ctx.a)[2]
                image = root @ t.t @ np.linalg.pinv(root, hermitian=True)
                size = 1.0 + np.linalg.norm(t.t, 2)
                assert c.shape == (rank, rank)
                padded = np.concatenate([np.linalg.svd(c, compute_uv=False), np.zeros(n - rank)])
                sv_gap = np.abs(padded - np.linalg.svd(image, compute_uv=False)).max()
                assert sv_gap <= COMPRESS_TOL * size
                # the first n power sums fix the n eigenvalues (Newton's identities);
                # computed eigenvalues would instead test eigvals' O(eps^(1/k)) error
                # at the defective eigenvalues of nilpotent-lift and sparse operators
                for k in range(1, n + 1):
                    sums = [np.trace(np.linalg.matrix_power(m, k)) for m in (c, image)]
                    assert abs(sums[0] - sums[1]) <= n * COMPRESS_TOL * size**k
                omegas = [classical_numerical_radius(m) for m in (c, image)]
                assert abs(omegas[0] - omegas[1]) <= COMPRESS_TOL * size


def test_reduce_requires_boundedness():
    ctx = make_context(np.diag([1.0, 0.0]))
    with pytest.raises(NotABounded):
        reduce(Operator([[0, 1], [0, 0]], ctx))


def test_reduce_is_multiplicative_and_star_preserving():
    for seed in range(30):
        ctx = gen_psd(4, 3, seed)
        s = gen_compatible(ctx, seed + 1)
        t = gen_compatible(ctx, seed + 2)
        prod = Operator(t.t @ s.t, ctx)
        scale = 1.0 + np.linalg.norm(reduce(t), 2) * np.linalg.norm(reduce(s), 2)
        assert np.linalg.norm(reduce(prod) - reduce(t) @ reduce(s), 2) <= HOM_TOL * scale
        assert np.linalg.norm(reduce(a_adjoint(t)) - reduce(t).conj().T, 2) <= STAR_TOL * (
            1.0 + np.linalg.norm(reduce(t), 2)
        )


# ---------------------------------------------------------------- seminorm


def test_a_op_norm_identity_weight():
    ctx = make_context(np.eye(2))
    assert a_op_norm(Operator([[0, 1], [0, 0]], ctx)) == pytest.approx(1.0)


def test_a_op_norm_ignores_null_directions():
    ctx = make_context(np.diag([1.0, 0.0]))
    assert a_op_norm(Operator(np.diag([2.0, 5.0]), ctx)) == pytest.approx(2.0)


def test_a_op_norm_montecarlo_supremum():
    ctx, op = random_member(3, 2, seed=17)
    rng = np.random.default_rng(99)
    x = a_unit_samples(rng, ctx, 100_000)
    y = x @ op.t.T  # rows become T x
    sampled = np.sqrt(np.einsum("ki,ij,kj->k", y.conj(), ctx.a, y).real).max()
    norm = a_op_norm(op)
    assert norm >= sampled - 1e-9
    assert abs(norm - sampled) <= 1e-3 * (1.0 + norm)


def test_a_op_norm_unbounded_sentinel():
    ctx = make_context(np.diag([1.0, 0.0]))
    bad = Operator([[0, 1], [0, 0]], ctx)
    with pytest.warns(ABoundednessWarning):
        assert a_op_norm(bad) == math.inf


def test_seminorm_attained_on_weighted_pairs():
    # sup over unit pairs of |<Tx, y>_A|: never exceeds the seminorm, and the
    # pair (x, Tx/||Tx||_A) reaches it; rank 2 keeps the unit sphere of the
    # seminorm low-dimensional enough for random search to converge
    for seed in (1, 2):
        ctx, op = random_member(3, 2, seed)
        norm = a_op_norm(op)
        rng = np.random.default_rng(seed)
        x = a_unit_samples(rng, ctx, 50_000)
        y = a_unit_samples(rng, ctx, x.shape[0])
        tx = x @ op.t.T
        vals = np.abs(np.einsum("ki,ij,kj->k", y.conj(), ctx.a, tx))
        assert vals.max() <= norm + 1e-9
        tx_norms = np.sqrt(np.einsum("ki,ij,kj->k", tx.conj(), ctx.a, tx).real)
        keep = tx_norms > 1e-12
        unit = tx[keep] / tx_norms[keep, None]
        aligned = np.abs(np.einsum("ki,ij,kj->k", unit.conj(), ctx.a, tx[keep]))
        assert aligned.max() <= norm + 1e-9
        assert aligned.max() >= norm - 1e-3 * (1.0 + norm)


# ------------------------------------------------------ stacked primitives


def planted_stack(ctx, shape, bad, seed):
    """Members of B_A in a stack of the given batch shape, with non-members
    at the flat positions ``bad`` (their null -> range eigenbasis block is set)."""
    rng = np.random.default_rng(seed)
    count = int(np.prod(shape))
    mats = np.stack([gen_compatible(ctx, seed * 100 + k).t for k in range(count)])
    r, v = ctx.rank, ctx.eigvecs
    for k in bad:
        leak = np.zeros((ctx.dim, ctx.dim), dtype=complex)
        leak[:r, r:] = rng.standard_normal((r, ctx.dim - r)) + 1.0
        mats[k] += v @ leak @ v.conj().T
    return mats.reshape(*shape, ctx.dim, ctx.dim)


@pytest.mark.parametrize("half", [False, True])
def test_first_failure_agrees_with_per_matrix_tests(half):
    per_matrix = in_ba_half if half else in_ba
    rng = np.random.default_rng(11)
    for seed in range(12):
        ctx = gen_psd(4, 2 + seed % 2, seed)
        shape = (3, 3) if seed % 2 else (7,)
        count = int(np.prod(shape))
        bad = sorted(rng.choice(count, size=seed % 3, replace=False).tolist())
        mats = planted_stack(ctx, shape, bad, seed)
        flags = [per_matrix(Operator(m, ctx)) for m in mats.reshape(-1, 4, 4)]
        assert [k for k, ok in enumerate(flags) if not ok] == bad
        expected = np.unravel_index(bad[0], shape) if bad else None
        assert first_failure(ctx, mats, half=half) == expected
        for k in range(count):
            single = first_failure(ctx, mats.reshape(-1, 4, 4)[k], half=half)
            assert single == (None if flags[k] else ())


# ------------------------------------------------------------ finite input


def _nonfinite_make_context(bad):
    make_context(bad)


def _nonfinite_operator(bad):
    Operator(bad, make_context(np.eye(2)))


def _nonfinite_assemble(bad):
    assemble([[bad, np.eye(2)], [np.eye(2), bad]], make_context(np.eye(2)))


def _nonfinite_json(bad):
    text = json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in bad])
    make_context(matrix_from_json(json.loads(text)))


def _nonfinite_semi_inner(bad):
    semi_inner(np.ones(2), bad[0], make_context(np.eye(2)))


def _nonfinite_semi_norm(bad):
    semi_norm(bad[0], make_context(np.eye(2)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry",
    [
        _nonfinite_make_context,
        _nonfinite_operator,
        _nonfinite_assemble,
        _nonfinite_json,
        classical_numerical_radius,
        classical_spectral_radius,
        _nonfinite_semi_inner,
        _nonfinite_semi_norm,
    ],
)
def test_nonfinite_input_is_rejected(entry, value):
    bad = np.eye(2, dtype=complex)
    bad[0, 1] = value
    with pytest.raises(NotFinite, match="NaN or infinite"):
        entry(bad)
