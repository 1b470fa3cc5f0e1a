"""Acceptance suite: one test per acceptance criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the campaign wall time.  The campaign of criterion 1 is shared
with criterion 5 through a module fixture.
"""

import os
import time

import numpy as np
import pytest

from semihilbert import (
    CampaignConfig,
    GenSpec,
    Operator,
    a_adjoint,
    a_numerical_radius,
    a_op_norm,
    a_spectral_radius,
    antidiagonal_block_matrix,
    assemble,
    classical_numerical_radius,
    classical_spectral_radius,
    diagonal_block_matrix,
    evaluate_all,
    flatten,
    hat_matrix,
    im_a,
    make_context,
    omega_offdiag,
    omega_real_part_sup,
    re_a,
    reduce,
    run_campaign,
    structured_norms,
    structured_omega,
    u_k,
)
from semihilbert.core import spectral_norm
from semihilbert.generators import gen_a_unitary, gen_compatible, gen_psd

from conftest import ACCEPTANCE_SHAPES, CAMPAIGN_TOL, weight_oracle

SLACK = 1e-8


def announce(line: str):
    print(f"\nPASS  {line}")


@pytest.fixture(scope="module")
def campaign_result():
    gens = tuple(
        GenSpec(n=n, d=d, rank=rank, ensemble="ginibre", scale=1.0, seed=0)
        for d, n, rank in ACCEPTANCE_SHAPES
    )
    cfg = CampaignConfig(
        trials=1000,
        gens=gens,
        tol=CAMPAIGN_TOL,
        parallelism=min(4, os.cpu_count() or 1),
    )
    t0 = time.perf_counter()
    result = run_campaign(cfg)
    wall = time.perf_counter() - t0
    print(f"\ncampaign: {result.summary['instances']} instances in {wall:.1f} s "
          f"({result.summary['instances'] / wall:.0f}/s)")
    return result


def test_criterion_1_inequality_campaign(campaign_result):
    summary = campaign_result.summary
    assert summary["instances"] == 12_000
    assert summary["violations"] == 0, summary
    assert all(v == 0 for v in summary["bound_violations"].values())
    assert not campaign_result.invariant_failures
    announce(
        "criterion 1: all seven bounds hold on 12000 random instances "
        "(d in 2..4, n in 2..3, full and deficient rank, seeds 0..999)"
    )


def test_criterion_2_route_agreement():
    checked = 0
    for seed in range(500):
        n = 2 + seed % 3
        rank = max(1, n - seed % 2)
        ctx = gen_psd(n, rank, seed)
        op = gen_compatible(ctx, seed + 10_000)
        primary = classical_numerical_radius(reduce(op))
        alt = omega_real_part_sup(op)
        assert abs(primary - alt) <= 1e-7 * max(primary, 1e-12), (seed, primary, alt)
        checked += 1
    assert checked == 500
    announce("criterion 2: reduction route and rotated-real-part route agree "
             "within 1e-7 relative on 500 instances")


def test_criterion_3a_vanishing_square_equality():
    for seed in range(200):
        ctx = gen_psd(2 + seed % 3, max(1, 2 + seed % 3 - seed % 2), seed)
        op = gen_compatible(ctx, seed + 20_000, "nilpotent-lift")
        target = 0.5 * a_op_norm(op)
        scale = 1.0 + target
        assert abs(a_numerical_radius(op) - target) <= SLACK * scale
    announce("criterion 3a: radius equals half the seminorm on 200 "
             "vanishing-weighted-square draws")


def test_criterion_3b_selfadjoint_equality():
    for seed in range(200):
        ctx = gen_psd(2 + seed % 3, max(1, 2 + seed % 3 - seed % 2), seed)
        op = gen_compatible(ctx, seed + 30_000, "a-selfadjoint")
        vals = (a_op_norm(op), a_numerical_radius(op), a_spectral_radius(op))
        scale = 1.0 + max(vals)
        assert max(vals) - min(vals) <= SLACK * scale
    announce("criterion 3b: seminorm, numerical radius and spectral radius "
             "coincide on 200 weighted-selfadjoint draws")


def test_criterion_3c_structured_formulas():
    for seed in range(200):
        d = 2 + seed % 2
        n = 2 + seed % 2
        ctx = gen_psd(n, max(1, n - seed % 2), seed)
        entries = [gen_compatible(ctx, seed + 100 * k + 40_000) for k in range(d)]

        diag = diagonal_block_matrix(entries)
        assert abs(structured_norms(entries, "diagonal") - a_op_norm(flatten(diag))) <= SLACK
        assert abs(structured_omega(entries) - a_numerical_radius(flatten(diag))) <= SLACK

        anti = antidiagonal_block_matrix(entries)
        assert abs(structured_norms(entries, "antidiagonal") - a_op_norm(flatten(anti))) <= SLACK
    announce("criterion 3c: diagonal and antidiagonal max-formulas match the "
             "assembled computations on 200 + 200 draws")


def test_criterion_4_tightness_witness():
    ctx = make_context(np.eye(2))
    grid = np.zeros((2, 2, 2, 2), dtype=complex)
    grid[0, 1] = np.eye(2)
    rep = evaluate_all(assemble(grid, ctx), instance_id="witness")
    assert abs(rep.omega - 0.5) <= 1e-9
    for key in ("B1_thf1", "B3_th2", "B4_diag_offdiag", "B6_maxdiag"):
        assert abs(rep.bounds[key] - 0.5) <= 1e-9, key
        assert rep.gaps[key] <= 1e-9, key
    assert abs(rep.bounds["B2_r2"] - 0.75) <= 1e-9
    assert abs(rep.bounds["B5_re_im"] - np.sqrt(2) / 2) <= 1e-9
    announce("criterion 4: tightness witness reproduces radius 0.5 with "
             "B1 = B3 = B4 = B6 = 0.5, B2 = 0.75, B5 = sqrt(2)/2")


def test_criterion_5_refinement_claim(campaign_result):
    strict = 0
    for rep in campaign_result.reports:
        assert rep.refinement_ok, rep.instance_id
        if rep.bounds["B3_th2"] < rep.bounds["B7_prior"] - 1e-3:
            strict += 1
    assert strict > 0
    announce(f"criterion 5: pairwise-radius bound refines the prior bound on "
             f"100% of instances and is strict on {strict} of them")


def test_criterion_6_core_identities():
    tol_resid = 1e-9
    for seed in range(500):
        n = 2 + seed % 3
        rank = max(1, n - seed % 2)
        ctx = gen_psd(n, rank, seed)
        a = ctx.a
        pinv, proj, _ = weight_oracle(a)
        scale = 1.0 + ctx.norm
        assert spectral_norm(a @ pinv @ a - a) <= tol_resid * scale
        assert spectral_norm(pinv @ a @ pinv - pinv) <= tol_resid * scale
        prod = a @ pinv
        assert spectral_norm(prod - prod.conj().T) <= tol_resid * scale

        op = gen_compatible(ctx, seed + 50_000)
        sharp = a_adjoint(op)
        op_scale = 1.0 + ctx.norm * spectral_norm(op.t)
        assert spectral_norm(ctx.a @ sharp.t - op.t.conj().T @ ctx.a) <= tol_resid * op_scale
        twice = a_adjoint(sharp)
        compressed = proj @ op.t @ proj
        assert spectral_norm(twice.t - compressed) <= tol_resid * op_scale

        norm = a_op_norm(op)
        prod_op = Operator(sharp.t @ op.t, ctx)
        assert abs(norm**2 - a_op_norm(prod_op)) <= tol_resid * (1.0 + norm**2)

        other = gen_compatible(ctx, seed + 60_000)
        pair = Operator(op.t @ other.t, ctx)
        hom_scale = 1.0 + spectral_norm(reduce(op)) * spectral_norm(reduce(other))
        assert spectral_norm(reduce(pair) - reduce(op) @ reduce(other)) <= tol_resid * hom_scale
    announce("criterion 6: pseudoinverse, adjoint-equation, double-adjoint, "
             "norm-square and reduction-homomorphism residuals below 1e-9 on "
             "500 draws each")


def test_criterion_7_lemma_suite():
    for seed in range(200):
        d = 2 + seed % 2
        n = 2 + seed % 2
        rank = max(1, n - seed % 2)
        ctx = gen_psd(n, rank, seed)
        grid = [
            [gen_compatible(ctx, seed + 100 * (d * i + j) + 70_000).t for j in range(d)]
            for i in range(d)
        ]
        bm = assemble(grid, ctx)
        flat = flatten(bm)

        # spectral radius dominated by the radius of the seminorm matrix
        hat = hat_matrix(bm)
        assert a_spectral_radius(flat) <= classical_spectral_radius(hat) + SLACK
        # seminorm dominated by the norm of the seminorm matrix
        assert a_op_norm(flat) <= spectral_norm(hat) + SLACK

        # off-diagonal pair radius equals the assembled two-block computation
        t = Operator(bm.blocks[0, 1], ctx)
        s = Operator(bm.blocks[1, 0], ctx)
        two = np.zeros((2, 2, n, n), dtype=complex)
        two[0, 1], two[1, 0] = t.t, s.t
        assembled = a_numerical_radius(flatten(assemble(two, ctx)))
        formula = omega_offdiag(t, s)
        assert abs(assembled - formula) <= SLACK * (1.0 + assembled)

        # nonnegative-matrix radius via the symmetrized spectral radius
        rng = np.random.default_rng(seed)
        nn = rng.random((d, d))
        direct = classical_numerical_radius(nn)
        sym = np.abs(np.linalg.eigvalsh(nn + nn.T)).max() / 2.0
        assert abs(direct - sym) <= SLACK * (1.0 + direct)

        # radius below the quadrature of the part seminorms
        op = Operator(bm.blocks[0, 0], ctx)
        rhs = np.hypot(a_op_norm(re_a(op)), a_op_norm(im_a(op)))
        assert a_numerical_radius(op) <= rhs + SLACK

        # invariance under weighted-unitary conjugation, generated and permutation
        u = gen_a_unitary(ctx, seed + 80_000)
        conj = Operator(a_adjoint(u).t @ op.t @ u.t, ctx)
        w1, w2 = a_numerical_radius(op), a_numerical_radius(conj)
        assert abs(w1 - w2) <= SLACK * (1.0 + w1)
        perm = flatten(u_k(2, d, ctx))
        lifted_conj = Operator(a_adjoint(perm).t @ flat.t @ perm.t, bm.lifted_ctx)
        w3, w4 = a_numerical_radius(flat), a_numerical_radius(lifted_conj)
        assert abs(w3 - w4) <= SLACK * (1.0 + w3)
    announce("criterion 7: comparison-matrix, off-diagonal, nonnegative-radius, "
             "quadrature and unitary-invariance properties hold on 200 trials each")


def test_criterion_8_determinism(tmp_path):
    gens = (
        GenSpec(n=2, d=2, rank=2, ensemble="ginibre", seed=0),
        GenSpec(n=3, d=2, rank=2, ensemble="a-selfadjoint", seed=7),
    )
    outs = []
    for name in ("first", "second"):
        cfg = CampaignConfig(
            trials=5,
            gens=gens,
            tol=CAMPAIGN_TOL,
            output_path=str(tmp_path / name),
            parallelism=2,
        )
        run_campaign(cfg)
        outs.append((tmp_path / name / "reports.json").read_bytes())
    assert outs[0] == outs[1]
    announce("criterion 8: repeated campaign runs produce byte-identical reports")
