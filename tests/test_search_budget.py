"""Each weighted radius costs one circle search; counted at every import site."""

import importlib
import pkgutil

import pytest

import semihilbert
from semihilbert import a_numerical_radius, evaluate_all
from semihilbert.circle import sup_on_circle_batch

from conftest import random_member
from test_blockops import random_block_matrix


@pytest.fixture
def searches(monkeypatch):
    """Count calls of sup_on_circle_batch through every module that holds it."""
    calls = []

    def counted(evaluate, count, tol=semihilbert.DEFAULT_TOL):
        calls.append(count)
        return sup_on_circle_batch(evaluate, count, tol)

    modules = [semihilbert] + [
        importlib.import_module(f"semihilbert.{info.name}")
        for info in pkgutil.iter_modules(semihilbert.__path__)
    ]
    sites = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is sup_on_circle_batch:
                monkeypatch.setattr(module, attr, counted)
                sites += 1
    assert sites >= 2  # its own module and the radii
    return calls


def test_numerical_radius_makes_one_search(searches):
    _, t = random_member(4, 3, seed=9)
    a_numerical_radius(t)
    assert len(searches) == 1


def test_evaluate_all_makes_three_searches(searches):
    # the flattened radius, the diagonal radii and the pair radii; B3 is closed form
    evaluate_all(random_block_matrix(3, 2, 1, seed=9))
    assert len(searches) == 3
