"""Shared helpers for the test suite."""

import numpy as np
import pytest

import semihilbert.campaign as campaign
from semihilbert import Operator, make_context
from semihilbert.bounds import BOUND_KEYS, BoundReport
from semihilbert.generators import gen_compatible, gen_psd


@pytest.fixture
def identity_ctx():
    return make_context(np.eye(2))


def random_member(n, rank, seed, ensemble="ginibre"):
    """Random (context, operator) pair with the operator admitting an adjoint."""
    ctx = gen_psd(n, rank, seed)
    op = gen_compatible(ctx, seed + 10_000, ensemble)
    return ctx, op


def a_unit_samples(rng, ctx, count):
    """Random vectors scaled to weighted norm one (null-only draws discarded)."""
    n = ctx.dim
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    norms = np.sqrt(np.einsum("ki,ij,kj->k", z.conj(), ctx.a, z).real)
    keep = norms > 1e-8
    return z[keep] / norms[keep, None]


def operator(matrix, ctx) -> Operator:
    return Operator(np.asarray(matrix, dtype=complex), ctx)


def corrupt_bound(monkeypatch, key):
    """Make the campaign's evaluator report bound ``key`` far below the radius.

    Exercises the violation plumbing of serial campaigns and ``verify``; the
    gaps and verdicts are rebuilt by the evaluator's own ``from_bounds``.
    """
    if key not in BOUND_KEYS:
        raise ValueError(f"unknown bound key {key!r}")
    evaluate = campaign.evaluate_all

    def corrupted(bm, tol, instance_id):
        report = evaluate(bm, tol, instance_id=instance_id)
        bounds = dict(report.bounds, **{key: report.omega / 2.0 - 1.0})
        return BoundReport.from_bounds(instance_id, report.omega, bounds, report.timing, tol)

    monkeypatch.setattr(campaign, "evaluate_all", corrupted)
