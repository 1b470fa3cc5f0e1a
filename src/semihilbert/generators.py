"""Seeded random instance generators honoring the membership constraints.

With a singular weight matrix, rejection sampling essentially never lands in
the adjoint-admitting algebra, so operators are drawn directly in the weight
eigenbasis with the (null -> range) block forced to zero and rotated back.
Specialized ensembles target the equality cases: ``nilpotent-lift`` makes
the weighted square vanish, ``a-selfadjoint`` makes the weighted product
Hermitian, and ``sparse`` masks eigenbasis entries while preserving
membership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockops import BlockMatrix, assemble
from .config import DEFAULT_TOL, ToleranceConfig, require_integer, require_positive
from .core import Operator, PsdContext, a_adjoint, make_context, semi_norm
from .errors import ConstructionFailed

__all__ = ["GenSpec", "gen_psd", "gen_compatible", "gen_a_unitary", "gen_block_matrix"]

ENSEMBLES = ("ginibre", "nilpotent-lift", "a-selfadjoint", "sparse")

_SPARSE_KEEP = 0.35  # expected fraction of nonzero eigenbasis entries
_UNITARY_ATTEMPTS = 16
_UNITARY_PROBES = 100


@dataclass(frozen=True)
class GenSpec:
    """One slot of a campaign: dimensions, ensemble, scale and seed."""

    n: int
    d: int
    rank: int
    ensemble: str = "ginibre"
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 1), ("d", 1), ("rank", 1), ("seed", 0)):
            require_integer(name, getattr(self, name), least)
        if self.rank > self.n:
            raise ValueError(f"need 1 <= rank <= n, got rank={self.rank}, n={self.n}")
        require_positive("scale", self.scale)
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, n, n))
    phases = np.diagonal(r).copy()
    phases = np.where(np.abs(phases) > 0, phases / np.abs(phases), 1.0)
    return q * phases[None, :]


def gen_psd(n: int, rank: int, seed, tol: ToleranceConfig = DEFAULT_TOL) -> PsdContext:
    """Random PSD context of prescribed rank: Haar basis, eigenvalues in [0.1, 2]."""
    if not 1 <= rank <= n:
        raise ValueError(f"need 1 <= rank <= n, got rank={rank}, n={n}")
    rng = _rng(seed)
    v = _haar_unitary(rng, n)
    lam = np.zeros(n)
    lam[:rank] = rng.uniform(0.1, 2.0, size=rank)
    a = (v * lam) @ v.conj().T
    return make_context((a + a.conj().T) / 2.0, tol)


def _index2_nilpotent(rng: np.random.Generator, r: int) -> np.ndarray:
    """Random r x r matrix with exactly vanishing square."""
    out = np.zeros((r, r), dtype=np.complex128)
    if r >= 2:
        half = r // 2
        out[:half, half:] = _ginibre(rng, half, r - half)
        w = _haar_unitary(rng, r)
        out = w @ out @ w.conj().T
    return out


def gen_compatible(
    ctx: PsdContext, seed, ensemble: str = "ginibre", scale: float = 1.0
) -> Operator:
    """Random operator admitting a weighted adjoint, by eigenbasis construction.

    The (null -> range) eigenbasis block is zero in every ensemble, which is
    exactly the membership condition; the remaining blocks vary by ensemble.
    """
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}")
    rng = _rng(seed)
    n, r = ctx.dim, ctx.rank
    b = _ginibre(rng, n, n)
    b[:r, r:] = 0.0
    if ensemble == "nilpotent-lift":
        b[:r, :r] = _index2_nilpotent(rng, r)
    elif ensemble == "a-selfadjoint":
        h = _ginibre(rng, r, r)
        h = (h + h.conj().T) / 2.0
        b[:r, :r] = h / ctx.eigvals[:r, None]
    elif ensemble == "sparse":
        b *= rng.random((n, n)) < _SPARSE_KEEP
    v = ctx.eigvecs
    return Operator(scale * (v @ b @ v.conj().T), ctx)


def gen_a_unitary(
    ctx: PsdContext, seed, tol: ToleranceConfig = DEFAULT_TOL
) -> Operator:
    """Random weighted unitary: both isometry identities hold for all vectors.

    On the range block the operator conjugates a Haar unitary by the square
    root of the restricted weight; the null blocks are free.  The two
    isometry identities are verified on random probes before returning.
    """
    rng = _rng(seed)
    n, r = ctx.dim, ctx.rank
    root = np.sqrt(ctx.eigvals[:r])
    for _ in range(_UNITARY_ATTEMPTS):
        q = _haar_unitary(rng, r)
        w = q * (root[None, :] / root[:, None])
        b = np.zeros((n, n), dtype=np.complex128)
        b[:r, :r] = w
        if n > r:
            b[r:, :r] = _ginibre(rng, n - r, r)
            b[r:, r:] = _ginibre(rng, n - r, n - r)
        u = Operator(ctx.eigvecs @ b @ ctx.eigvecs.conj().T, ctx)
        sharp = a_adjoint(u, tol)
        for _ in range(_UNITARY_PROBES):
            x = _ginibre(rng, n, 1).reshape(-1)
            ref = semi_norm(x, ctx)
            slack = tol.cmp_atol * (1.0 + ref)
            if any(abs(semi_norm(m @ x, ctx) - ref) > slack for m in (u.t, sharp.t)):
                break
        else:
            return u
    raise ConstructionFailed("weighted-unitary verification failed on all attempts")


def gen_block_matrix(spec: GenSpec, tol: ToleranceConfig = DEFAULT_TOL) -> BlockMatrix:
    """Random block matrix drawn from one generation spec, fully seed-determined."""
    rng = _rng(spec.seed)
    ctx = gen_psd(spec.n, spec.rank, rng, tol)
    grid = [
        [gen_compatible(ctx, rng, spec.ensemble, spec.scale).t for _ in range(spec.d)]
        for _ in range(spec.d)
    ]
    return assemble(grid, ctx)
