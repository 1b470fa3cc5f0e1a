"""Checks with teeth: plausible bugs that the campaign's run-time checks must see.

Every row runs the same campaign, the 12 acceptance shapes (d 2-4, n 2-3,
full and deficient rank) in each of the four ensembles with one trial at
seed 0, 48 instances at the acceptance tolerance, serially so that the
mutant reaches every instance.  A mutant is caught when the campaign counts
at least one violation; the unmutated campaign counts none.
"""

import numpy as np
import pytest

from semihilbert import CampaignConfig, GenSpec, InstanceWork, bounds, run_campaign
from semihilbert.generators import ENSEMBLES

from conftest import ACCEPTANCE_SHAPES, CAMPAIGN_TOL

GENS = tuple(
    GenSpec(n=n, d=d, rank=rank, ensemble=ensemble, seed=0)
    for ensemble in ENSEMBLES
    for d, n, rank in ACCEPTANCE_SHAPES
)


def violations() -> int:
    summary = run_campaign(CampaignConfig(trials=1, gens=GENS, tol=CAMPAIGN_TOL)).summary
    assert summary["instances"] == len(GENS)
    return summary["violations"]


def _flat_grid(transpose):
    """A ``flat_reduced`` that lays out the block grid with ``transpose``."""

    def flat_reduced(work):
        d, r = work.bm.d, work.ctx.rank
        return transpose(work.reduced_blocks).reshape(d * r, d * r)

    return property(flat_reduced)


def _zeroed_diagonal(grid):
    grid = grid.copy()
    grid[np.arange(len(grid)), np.arange(len(grid))] = 0.0
    return grid.transpose(0, 2, 1, 3)


def zeroed_diagonal(monkeypatch):
    """The flattened grid loses its diagonal blocks."""
    monkeypatch.setattr(InstanceWork, "flat_reduced", _flat_grid(_zeroed_diagonal))


def block_transposed(monkeypatch):
    """The flattened grid is laid out with the block indices swapped."""
    monkeypatch.setattr(InstanceWork, "flat_reduced", _flat_grid(lambda g: g.transpose(1, 2, 0, 3)))


def unconjugated_pair_rights(monkeypatch):
    """Pair problems pair R_ij with R_ji instead of R_ji^*."""
    search = bounds.offdiag_sup_batch

    def mutant(lefts, rights, tol):
        return search(lefts, np.conj(np.swapaxes(rights, -1, -2)), tol)

    monkeypatch.setattr(bounds, "offdiag_sup_batch", mutant)


def test_unmutated_campaign_is_clean():
    assert violations() == 0


@pytest.mark.parametrize(
    "mutant",
    [
        zeroed_diagonal,
        unconjugated_pair_rights,
        pytest.param(
            block_transposed,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the block-transposed grid keeps every checked quantity within "
                "its slack; it needs the witness check of ROADMAP item 8",
            ),
        ),
    ],
)
def test_mutant_is_caught(monkeypatch, mutant):
    mutant(monkeypatch)
    assert violations() > 0
