"""Reference checker shared by every workload.

It uses none of the program's numerical code.  From its own ``eigh`` of the
weight ``A`` it builds the rank-r compression

    C = L^{1/2} V^* T V L^{-1/2}        (V: eigenvectors of the r nonzero
                                          eigenvalues L, lifted as I_d (x) V)

whose norm, numerical radius and spectral radius are the weighted ones of
``T``.  The numerical radius is bracketed from a 4096-point grid of supporting
lines of the numerical range: each sample ``lambda_max(Re(e^{it} C))`` is a
lower bound, and the polygon cut out by those lines lies inside the circle of
radius ``lo / cos(pi / m)``.  Norm and spectral radius come from its own SVD
and eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID = 4096
CMP_ATOL = 1e-8  # the program's default comparison slack, scaled by 1 + omega
RANK_RTOL = 1e-10
# computed eigenvalues of a defective matrix sit O(sqrt(eps)) off the exact ones
DEFECTIVE_GUARD = 256.0 * math.sqrt(np.finfo(float).eps)
_CHUNK = 256  # angles per batched eigvalsh, to bound memory at order 48


@dataclass(frozen=True)
class Reference:
    """Independent figures for one operator: omega lies in [lo, hi]."""

    lo: float
    hi: float
    norm: float
    spectral: float


def flatten_blocks(blocks: np.ndarray) -> np.ndarray:
    """The (d n) x (d n) matrix of a (d, d, n, n) block grid, row-major tiles."""
    d, _, n, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(d * n, d * n)


def compress(a: np.ndarray, t: np.ndarray, d: int = 1) -> np.ndarray:
    """Rank-r compression of ``t`` against the d-fold block-diagonal lift of ``a``."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    keep = w > RANK_RTOL * w.max()
    basis = np.kron(np.eye(d), v[:, keep])
    root = np.tile(np.sqrt(w[keep]), d)
    return root[:, None] * (basis.conj().T @ t @ basis) / root[None, :]


def reference(a: np.ndarray, t: np.ndarray, d: int = 1) -> Reference:
    """Bracket, norm and spectral radius of ``t`` weighted by ``a`` (lifted d-fold)."""
    c = compress(np.asarray(a, dtype=complex), np.asarray(t, dtype=complex), d)
    herm = (c + c.conj().T) / 2.0
    skew = (c - c.conj().T) / 2.0j
    theta = np.arange(GRID) * (2.0 * math.pi / GRID)
    lo = -math.inf
    for chunk in np.split(theta, GRID // _CHUNK):
        # Hermitian part of e^{it} C is cos(t) H - sin(t) K
        pencil = np.cos(chunk)[:, None, None] * herm - np.sin(chunk)[:, None, None] * skew
        lo = max(lo, float(np.linalg.eigvalsh(pencil)[:, -1].max()))
    return Reference(
        lo=lo,
        hi=lo / math.cos(math.pi / GRID),
        norm=float(np.linalg.svd(c, compute_uv=False)[0]),
        spectral=float(np.abs(np.linalg.eigvals(c)).max()),
    )


def slack(omega: float) -> float:
    return CMP_ATOL * (1.0 + abs(omega))


def radius_problems(ref: Reference, omega: float, bounds: dict[str, float] | None = None) -> list[str]:
    """What is wrong with a reported radius (and bounds on it); empty when all hold.

    Checks the bracket, every bound against the bracket's lower end, and the
    properties norm/2 <= omega <= norm and spectral radius <= omega.
    """
    s = slack(omega)
    out = []
    if not ref.lo - s <= omega <= ref.hi + s:
        out.append(f"omega {omega!r} outside reference bracket [{ref.lo!r}, {ref.hi!r}]")
    for key, value in (bounds or {}).items():
        if not value >= ref.lo - s:
            out.append(f"{key} = {value!r} below reference omega {ref.lo!r}")
    if not ref.norm / 2.0 - s <= omega <= ref.norm + s:
        out.append(f"omega {omega!r} outside [norm/2, norm] for norm {ref.norm!r}")
    if not ref.spectral <= omega + s:
        out.append(f"spectral radius {ref.spectral!r} above omega {omega!r}")
    return out


def operator_problems(
    ref: Reference, ensemble: str, norm: float, omega: float, spectral: float
) -> list[str]:
    """:func:`radius_problems` plus the norm, the spectral radius and the
    equality cases: omega = norm/2 when the weighted square vanishes, and
    omega = norm = spectral radius for weighted-selfadjoint operators."""
    s = slack(omega)
    out = radius_problems(ref, omega)
    if not abs(norm - ref.norm) <= slack(ref.norm):
        out.append(f"norm {norm!r} differs from reference {ref.norm!r}")
    if not abs(spectral - ref.spectral) <= s + DEFECTIVE_GUARD * ref.norm:
        out.append(f"spectral radius {spectral!r} differs from reference {ref.spectral!r}")
    if ensemble == "nilpotent-lift" and not abs(omega - ref.norm / 2.0) <= s:
        out.append(f"omega {omega!r} is not norm/2 = {ref.norm / 2.0!r} for a vanishing square")
    if ensemble == "a-selfadjoint" and not (abs(omega - ref.norm) <= s and abs(spectral - omega) <= s):
        out.append(
            f"omega {omega!r}, norm {ref.norm!r} and spectral radius {spectral!r} "
            "differ for a weighted-selfadjoint operator"
        )
    return out
