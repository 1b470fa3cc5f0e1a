"""Shared helpers for the test suite."""

import numpy as np
import pytest

from semihilbert import DEFAULT_TOL, GenSpec, Operator, bounds, make_context
from semihilbert.generators import gen_block_matrix, gen_compatible, gen_psd


@pytest.fixture
def identity_ctx():
    return make_context(np.eye(2))


def weight_oracle(a, tol=DEFAULT_TOL):
    """Pseudoinverse, range projection and square root of the PSD matrix ``a``.

    Built from this helper's own ``eigh`` with the ``rank_rtol`` cutoff and no
    code of the package, so tests can check the package's weight formulas.
    """
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    keep = w >= tol.rank_rtol * w.max()
    v, w = v[:, keep], w[keep]
    return (v / w) @ v.conj().T, v @ v.conj().T, (v * np.sqrt(w)) @ v.conj().T


def random_member(n, rank, seed, ensemble="ginibre"):
    """Random (context, operator) pair with the operator admitting an adjoint."""
    ctx = gen_psd(n, rank, seed)
    op = gen_compatible(ctx, seed + 10_000, ensemble)
    return ctx, op


def block_matrix_sweep(ensemble):
    """Block matrices of one ensemble over d 1-4, n 1-4, every rank, scales
    1e-6, 1 and 1e6 and three seeds: 480 instances."""
    for d in range(1, 5):
        for n in range(1, 5):
            for rank in range(1, n + 1):
                for scale in (1e-6, 1.0, 1e6):
                    for seed in range(3):
                        spec = GenSpec(n=n, d=d, rank=rank, ensemble=ensemble, scale=scale, seed=seed)
                        yield gen_block_matrix(spec)


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
    """Make bound ``key`` come out far below the radius in every report.

    Swaps the key's method in the evaluator's table, so the gaps and
    verdicts of serial campaigns and ``verify`` are still built by
    ``InstanceWork.report``.
    """
    if key not in bounds.BOUND_KEYS:
        raise ValueError(f"unknown bound key {key!r}")
    monkeypatch.setitem(bounds._BOUND_METHODS, key, lambda work: work.omega / 2.0 - 1.0)
