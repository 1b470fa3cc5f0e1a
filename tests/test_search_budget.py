"""Each weighted radius costs one circle search over half the circle on
matrices of the reduced order, and each block matrix or campaign instance
one blockwise adjoint test and one reduction of its block grid; all counted
at every import site."""

import importlib
import pkgutil

import pytest

import semihilbert
from semihilbert import GenSpec, a_numerical_radius, campaign, evaluate_all
from semihilbert.circle import (
    phase_combo_norm_objective,
    rotation_eig_objective,
    sup_on_circle_batch,
)
from semihilbert.core import first_failure, reduce, reduce_stack
from semihilbert.generators import gen_compatible
from semihilbert.radii import classical_numerical_radius, omega_offdiag, omega_real_part_sup

from conftest import CAMPAIGN_TOL, random_member
from test_blockops import random_block_matrix


def patch_everywhere(monkeypatch, fn, replacement) -> int:
    """Replace ``fn`` in every package module that holds it; return the site count."""
    modules = [semihilbert] + [
        importlib.import_module(f"semihilbert.{info.name}")
        for info in pkgutil.iter_modules(semihilbert.__path__)
    ]
    sites = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, replacement)
                sites += 1
    return sites


@pytest.fixture
def searches(monkeypatch):
    """Count calls of sup_on_circle_batch through every module that holds it."""
    calls = []

    def counted(evaluate, count, *args, **kwargs):
        calls.append(count)
        return sup_on_circle_batch(evaluate, count, *args, **kwargs)

    assert patch_everywhere(monkeypatch, sup_on_circle_batch, counted) >= 2
    return calls


def test_numerical_radius_makes_one_search(searches):
    _, t = random_member(4, 3, seed=9)
    a_numerical_radius(t)
    assert len(searches) == 1


def test_evaluate_all_makes_two_searches(searches):
    # the flattened radius, then one search over the d(d+1)/2 pair problems
    # i <= j, whose diagonal holds the diagonal radii; B3 is closed form
    evaluate_all(random_block_matrix(3, 2, 1, seed=9))
    assert searches == [1, 6]


@pytest.mark.parametrize("rank, orders", [(2, [6, 2]), (4, [12, 4])])
def test_evaluate_all_searches_matrices_of_the_reduced_order(monkeypatch, rank, orders):
    # every reduction is compressed to range(A): the flattened radius searches
    # (d r) x (d r) matrices and the pair problems r x r ones
    seen = []  # matrix order each search objective is built on

    def recording(build):
        def counted(*mats):
            seen.append(mats[0].shape[-1])
            return build(*mats)

        return counted

    for build in (rotation_eig_objective, phase_combo_norm_objective):
        assert patch_everywhere(monkeypatch, build, recording(build)) >= 1
    evaluate_all(random_block_matrix(3, 4, rank, seed=9))
    assert seen == orders


def test_campaign_chunk_makes_one_search_per_matrix_order(searches, monkeypatch):
    # the 12 acceptance specs with one trial fill one chunk: the flattened
    # radii meet in one search per order d r, the pair problems in one per
    # order r: 10 searches for the 24 radius stacks of the 12 instances
    orders = {"omega": [], "pairs": []}  # matrix order of each search objective

    def recording(build, kind):
        def counted(*mats):
            orders[kind].append(mats[0].shape[-1])
            return build(*mats)

        return counted

    for build, kind in (
        (rotation_eig_objective, "omega"),
        (phase_combo_norm_objective, "pairs"),
    ):
        assert patch_everywhere(monkeypatch, build, recording(build, kind)) >= 1
    gens = tuple(
        GenSpec(n=n, d=d, rank=rank, seed=0) for d in (2, 3, 4) for n in (2, 3) for rank in (n, n - 1)
    )
    result = campaign.run_campaign(campaign.CampaignConfig(trials=1, gens=gens, tol=CAMPAIGN_TOL))
    assert result.summary["instances"] == 12 and result.summary["instance_errors"] == []
    assert len(searches) == 10
    assert sorted(orders["omega"]) == [2, 3, 4, 6, 8, 9, 12]
    assert sorted(orders["pairs"]) == [1, 2, 3]
    # every instance's flattened radius and its d(d+1)/2 pair problems i <= j,
    # each searched once: 12 + 76 = 88 problems
    assert sum(searches) == 12 + sum(d * (d + 1) // 2 for d in (2, 3, 4) for _ in range(4))


@pytest.fixture
def grids(monkeypatch):
    """(objective angles per problem, problems) of every circle search, counted
    through every module that holds ``sup_on_circle_batch``."""
    seen = []

    def counted(evaluate, count, *args, **kwargs):
        angles = []

        def objective(thetas):
            angles.append(thetas.shape[1])
            return evaluate(thetas)

        results = sup_on_circle_batch(objective, count, *args, **kwargs)
        seen.append((sum(angles), count))
        return results

    assert patch_everywhere(monkeypatch, sup_on_circle_batch, counted) >= 2
    return seen


def test_every_radius_search_samples_half_the_circle(grids):
    # every radius objective has period pi, so a grid holds m/2 angles per
    # problem.  A numerical radius runs a coarse search of 8 angles, and its
    # certificate holds on all three problems here, so none is searched again
    # on the full grid of 64 angles at the campaign tolerance or 512 at the
    # default; the pair search keeps its full grid.  The Newton refiner
    # evaluates its angles through the derivative oracle, not the objective,
    # so the grid is the objective's only call
    evaluate_all(random_block_matrix(3, 2, 1, seed=9), CAMPAIGN_TOL)
    _, t = random_member(4, 3, seed=9)
    a_numerical_radius(t)
    omega_real_part_sup(t)
    classical_numerical_radius(t.t)
    assert grids == [(8, 1), (64, 6), (8, 1), (512, 1), (8, 1)]


def test_uncertified_radius_falls_back_to_the_full_grid(grids):
    # a nilpotent-lift reduction of rank 2 has a disk for its numerical range,
    # where the certificate's pencil is nearly singular: its one problem is
    # searched again on the full grid, and the fallback is the only extra search
    _, t = random_member(4, 2, seed=3, ensemble="nilpotent-lift")
    a_numerical_radius(t)
    assert grids == [(8, 1), (512, 1)]


def test_evaluate_all_tests_blockwise_adjoint_membership_once(monkeypatch):
    grids = []  # batch shape of every adjoint-membership test on a block grid

    def counted(ctx, mats, tol=semihilbert.DEFAULT_TOL, half=False):
        if not half and mats.ndim == 4:
            grids.append(mats.shape[:2])
        return first_failure(ctx, mats, tol, half)

    assert patch_everywhere(monkeypatch, first_failure, counted) >= 2
    evaluate_all(random_block_matrix(3, 2, 1, seed=9))
    assert grids == [(3, 3)]


def test_campaign_instance_tests_membership_once_and_never_calls_reduce(monkeypatch):
    # the blockwise adjoint test is the one membership gate; the flattened
    # reduction is read off the blockwise ones, so the checked per-operator
    # reduce is never called, by the bounds or by the invariants
    tests, reductions = [], []

    def counted_test(ctx, mats, tol=semihilbert.DEFAULT_TOL, half=False):
        tests.append(mats.shape[:-2])
        return first_failure(ctx, mats, tol, half)

    def counted_reduce(op, tol=semihilbert.DEFAULT_TOL):
        reductions.append(op.dim)
        return reduce(op, tol)

    assert patch_everywhere(monkeypatch, first_failure, counted_test) >= 2
    assert patch_everywhere(monkeypatch, reduce, counted_reduce) >= 2
    spec = GenSpec(n=3, d=3, rank=2, seed=5)
    ((_, _, failures, error),) = campaign._run_chunk([(0, spec, 0, CAMPAIGN_TOL)])
    assert failures == [] and error is None
    assert tests == [(3, 3)]
    assert reductions == []


def test_evaluate_all_reduces_the_block_grid_once(monkeypatch):
    # the (d, d) blocks in one stack; the flattened reduction, the pair rights
    # and every row and real/imaginary-part term read that one reduction
    batches = []  # batch shape of every reduction

    def counted(ctx, mats):
        batches.append(mats.shape[:-2])
        return reduce_stack(ctx, mats)

    assert patch_everywhere(monkeypatch, reduce_stack, counted) >= 2
    evaluate_all(random_block_matrix(3, 2, 1, seed=9))
    assert batches == [(3, 3)]


def test_offdiag_radius_tests_each_operand_once(monkeypatch):
    # admitting a weighted adjoint implies boundedness, so each operand's
    # adjoint test is its only membership test and the reductions are unchecked
    kinds = []

    def counted(ctx, mats, tol=semihilbert.DEFAULT_TOL, half=False):
        kinds.append("half" if half else "adjoint")
        return first_failure(ctx, mats, tol, half)

    assert patch_everywhere(monkeypatch, first_failure, counted) >= 2
    ctx, t = random_member(4, 3, seed=9)
    omega_offdiag(t, gen_compatible(ctx, 10))
    assert kinds == ["adjoint", "adjoint"]
