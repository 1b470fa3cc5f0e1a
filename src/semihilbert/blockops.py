"""Block operator matrices over the d-fold lifted weight context.

The lifted weight is the block-diagonal embedding of the base weight; its
eigenpairs are embedded blockwise rather than recomputed, so the lifted
eigenvectors are bit-identical tiles of the base ones and route comparisons
cannot be polluted by independent eigendecompositions.

Block layout is row-major with contiguous n x n tiles.  A single pair of
reshape helpers (:func:`flatten` / :func:`split_blocks`) owns the indexing
convention.  Blockwise membership, reduction, adjoint and seminorms are one
call each to the stacked primitives of :mod:`semihilbert.core` on the
``(d, d, n, n)`` grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig, require_integer
from .core import Operator, PsdContext, adjoint_stack, first_failure, reduce_stack, top_singular
from .errors import BadIndex, BlockNotInBA, DimensionMismatch, NotABounded, NotFinite, RaggedBlocks
from .radii import validated_radius_batch

__all__ = [
    "BlockMatrix",
    "lift",
    "assemble",
    "flatten",
    "split_blocks",
    "block_sharp",
    "u_k",
    "structured_norms",
    "structured_omega",
    "diagonal_block_matrix",
    "antidiagonal_block_matrix",
    "hat_matrix",
]


@dataclass(frozen=True, eq=False)
class BlockMatrix:
    """A d x d grid of equally sized blocks plus its base weight context."""

    blocks: np.ndarray  # shape (d, d, n, n)
    base_ctx: PsdContext

    @property
    def d(self) -> int:
        return self.blocks.shape[0]

    @property
    def n(self) -> int:
        return self.blocks.shape[-1]

    @cached_property
    def lifted_ctx(self) -> PsdContext:
        """The d-fold lifted weight of the flattened operator, built on first use."""
        return lift(self.base_ctx, self.d)


def lift(ctx: PsdContext, d: int) -> PsdContext:
    """Block-diagonal embedding of a context, eigenpairs embedded not recomputed.

    The lifted eigenpairs are the base ones tiled and sorted stably by
    descending eigenvalue, so the range pairs come first.
    """
    require_integer("d", d, 1, BadIndex)
    eye = np.eye(d)
    tiled = np.tile(ctx.eigvals, d)
    order = np.argsort(-tiled, kind="stable")
    fields = dict(
        a=np.kron(eye, ctx.a),
        eigvals=tiled[order],
        eigvecs=np.kron(eye, ctx.eigvecs)[:, order],
    )
    for arr in fields.values():
        arr.setflags(write=False)
    return PsdContext(rank=d * ctx.rank, **fields)


def _as_block_grid(blocks) -> np.ndarray:
    try:
        grid = np.array(blocks, dtype=np.complex128)
    except ValueError as exc:
        raise RaggedBlocks(f"blocks do not form a uniform grid: {exc}") from exc
    if grid.ndim != 4 or grid.shape[0] != grid.shape[1] or grid.shape[2] != grid.shape[3]:
        raise RaggedBlocks(f"expected a (d, d, n, n) grid, got shape {grid.shape}")
    if not np.isfinite(grid).all():
        raise NotFinite("block grid has NaN or infinite entries")
    return grid


def assemble(blocks, ctx: PsdContext) -> BlockMatrix:
    """Build a block matrix from a d x d grid of n x n blocks."""
    grid = _as_block_grid(blocks)
    if grid.shape[2] != ctx.dim:
        raise DimensionMismatch(
            f"blocks are {grid.shape[2]}x{grid.shape[2]} but context is {ctx.dim}-dimensional"
        )
    grid.setflags(write=False)
    return BlockMatrix(blocks=grid, base_ctx=ctx)


def flatten(bm: BlockMatrix) -> Operator:
    """The (d n) x (d n) operator of a block matrix, against the lifted context."""
    d, n = bm.d, bm.n
    flat = bm.blocks.transpose(0, 2, 1, 3).reshape(d * n, d * n)
    return Operator(flat, bm.lifted_ctx)


def split_blocks(m: np.ndarray, d: int) -> np.ndarray:
    """Inverse of the flatten layout: a (d n) x (d n) matrix to a (d, d, n, n) grid."""
    require_integer("d", d, 1, BadIndex)
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % d:
        raise DimensionMismatch(f"cannot split shape {m.shape} into {d}x{d} blocks")
    n = m.shape[0] // d
    return m.reshape(d, n, d, n).transpose(0, 2, 1, 3)


def _require_members(bm: BlockMatrix, tol: ToleranceConfig) -> None:
    """Raise :class:`BlockNotInBA` naming the first block without a weighted adjoint."""
    bad = first_failure(bm.base_ctx, bm.blocks, tol)
    if bad is not None:
        raise BlockNotInBA(*bad)


def block_sharp(bm: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> BlockMatrix:
    """Blockwise weighted adjoint: output block (i, j) is the adjoint of block (j, i)."""
    _require_members(bm, tol)
    out = adjoint_stack(bm.base_ctx, np.swapaxes(bm.blocks, 0, 1))
    out.setflags(write=False)
    return BlockMatrix(blocks=out, base_ctx=bm.base_ctx)


def u_k(k: int, d: int, ctx: PsdContext) -> BlockMatrix:
    """Block permutation: anti-diagonal identities on the leading k x k corner,
    identities on the trailing diagonal.  Entries are exact zeros and ones."""
    if not 2 <= k <= d:
        raise BadIndex(f"need 2 <= k <= d, got k={k}, d={d}")
    n = ctx.dim
    eye = np.eye(n, dtype=np.complex128)
    grid = np.zeros((d, d, n, n), dtype=np.complex128)
    for i in range(k):
        grid[i, k - 1 - i] = eye
    for i in range(k, d):
        grid[i, i] = eye
    return assemble(grid, ctx)


def _bounded_reductions(ctx: PsdContext, mats: np.ndarray, tol: ToleranceConfig, what: str) -> np.ndarray:
    """Reductions of a stack, after one boundedness test whose
    :class:`NotABounded` names the first unbounded ``what`` by its index."""
    bad = first_failure(ctx, mats, tol, half=True)
    if bad is not None:
        index = bad[0] if len(bad) == 1 else bad
        raise NotABounded(f"{what} {index} is unbounded for the weighted seminorm")
    return reduce_stack(ctx, mats)


def hat_matrix(bm: BlockMatrix, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The d x d matrix of blockwise weighted seminorms."""
    return top_singular(_bounded_reductions(bm.base_ctx, bm.blocks, tol, "block"))


def _entry_operators(
    entries, shape: str | None = None, ctx: PsdContext | None = None
) -> tuple[list[Operator], PsdContext]:
    """The entries as a list plus their common weight context (``ctx`` if given)."""
    ops = list(entries)
    if not ops:
        raise DimensionMismatch("need at least one entry")
    if shape is not None and shape not in ("diagonal", "antidiagonal"):
        raise ValueError(f"unknown shape {shape!r}")
    ctx = ctx or ops[0].ctx
    if not all(ctx.same_weight(op.ctx) for op in ops):
        raise DimensionMismatch("structured entries must share one weight context")
    return ops, ctx


def _reduced_entries(entries, shape: str, tol: ToleranceConfig) -> np.ndarray:
    """Reductions of the entries' stack, checked bounded entry by entry."""
    ops, ctx = _entry_operators(entries, shape)
    return _bounded_reductions(ctx, np.stack([op.t for op in ops]), tol, "entry")


def structured_norms(entries, shape: str, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Seminorm of a diagonal or antidiagonal block matrix: max of entry seminorms."""
    return float(top_singular(_reduced_entries(entries, shape, tol)).max())


def structured_omega(entries, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Numerical radius of a diagonal block matrix: max of entry radii."""
    return float(validated_radius_batch(_reduced_entries(entries, "diagonal", tol), tol).max())


def _placed(entries, ctx: PsdContext | None, anti: bool) -> BlockMatrix:
    ops, ctx = _entry_operators(entries, ctx=ctx)
    d, n = len(ops), ctx.dim
    grid = np.zeros((d, d, n, n), dtype=np.complex128)
    for i, op in enumerate(ops):
        grid[i, d - 1 - i if anti else i] = op.t
    return assemble(grid, ctx)


def diagonal_block_matrix(entries, ctx: PsdContext | None = None) -> BlockMatrix:
    """Assemble entries T_1 ... T_d on the main diagonal."""
    return _placed(entries, ctx, anti=False)


def antidiagonal_block_matrix(entries, ctx: PsdContext | None = None) -> BlockMatrix:
    """Assemble entries on the anti-diagonal, first entry in the top-right corner."""
    return _placed(entries, ctx, anti=True)
