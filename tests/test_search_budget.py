"""Each weighted radius costs one circle search over half the circle, each
block matrix one blockwise adjoint test, and each campaign instance one set of
membership tests and reductions; all counted at every import site."""

import importlib
import pkgutil

import pytest

import semihilbert
from semihilbert import GenSpec, ToleranceConfig, a_numerical_radius, campaign, evaluate_all
from semihilbert.circle import sup_on_circle_batch
from semihilbert.core import first_failure, reduce
from semihilbert.radii import classical_numerical_radius, omega_real_part_sup

from conftest import random_member
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
    # the flattened radius, then one search over all d^2 pair problems, whose
    # diagonal holds the diagonal radii; B3 is closed form
    evaluate_all(random_block_matrix(3, 2, 1, seed=9))
    assert searches == [1, 9]


def test_every_radius_search_samples_half_the_circle(monkeypatch):
    # every radius objective has period pi: m/2 + 6 + 3(N - 1) + 3 angles per
    # problem, 157 at the campaign tolerance and 665 at the default
    angles = []  # objective angles per problem, one entry per search

    def counted(evaluate, count, *args, **kwargs):
        seen = []

        def objective(thetas):
            seen.append(thetas.shape[1])
            return evaluate(thetas)

        results = sup_on_circle_batch(objective, count, *args, **kwargs)
        angles.append(sum(seen))
        return results

    assert patch_everywhere(monkeypatch, sup_on_circle_batch, counted) >= 2
    campaign_tol = ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7)
    evaluate_all(random_block_matrix(3, 2, 1, seed=9), campaign_tol)
    _, t = random_member(4, 3, seed=9)
    a_numerical_radius(t)
    omega_real_part_sup(t)
    classical_numerical_radius(t.t)
    assert angles == [157] * 2 + [665] * 3


def test_evaluate_all_tests_blockwise_adjoint_membership_once(monkeypatch):
    grids = []  # batch shape of every adjoint-membership test on a block grid

    def counted(ctx, mats, tol=semihilbert.DEFAULT_TOL, half=False):
        if not half and mats.ndim == 4:
            grids.append(mats.shape[:2])
        return first_failure(ctx, mats, tol, half)

    assert patch_everywhere(monkeypatch, first_failure, counted) >= 2
    evaluate_all(random_block_matrix(3, 2, 1, seed=9))
    assert grids == [(3, 3)]


def test_campaign_instance_tests_membership_four_times_and_reduces_twice(monkeypatch):
    # the blockwise adjoint test, then on the flattened operator its reduction,
    # its adjoint and the reduction of that adjoint; the invariants reuse them all
    tests, reductions = [], []

    def counted_test(ctx, mats, tol=semihilbert.DEFAULT_TOL, half=False):
        tests.append(mats.shape[:-2])
        return first_failure(ctx, mats, tol, half)

    def counted_reduce(op, tol=semihilbert.DEFAULT_TOL):
        reductions.append(op.dim)
        return reduce(op, tol)

    assert patch_everywhere(monkeypatch, first_failure, counted_test) >= 2
    assert patch_everywhere(monkeypatch, reduce, counted_reduce) >= 2
    campaign_tol = ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7)
    spec = GenSpec(n=3, d=3, rank=2, seed=5)
    _, _, failures = campaign._run_instance((0, spec, 0, campaign_tol))
    assert failures == []
    assert len(tests) == 4
    assert tests.count((3, 3)) == 1
    assert reductions == [9, 9]
