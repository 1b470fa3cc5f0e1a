"""The reference checker accepts the program's reports and flags fabricated faults."""

import numpy as np
import pytest

import reference
import workloads
from semihilbert import bounds, generators


@pytest.fixture(scope="module")
def instance():
    spec = generators.GenSpec(n=3, d=3, rank=2, seed=7)
    bm = generators.gen_block_matrix(spec, workloads.CAMPAIGN_TOL)
    report = bounds.evaluate_all(bm, workloads.CAMPAIGN_TOL)
    ref = reference.reference(
        np.array(bm.base_ctx.a), reference.flatten_blocks(np.array(bm.blocks)), bm.d
    )
    return report, ref


def test_program_report_passes(instance):
    report, ref = instance
    assert ref.lo <= ref.hi
    assert reference.radius_problems(ref, report.omega, report.bounds) == []


def test_lowered_omega_is_flagged(instance):
    report, ref = instance
    problems = reference.radius_problems(ref, report.omega * (1 - 1e-3), report.bounds)
    assert any("outside reference bracket" in p for p in problems)


def test_bound_below_omega_is_flagged(instance):
    report, ref = instance
    fabricated = dict(report.bounds, B3_th2=report.omega * (1 - 1e-3))
    problems = reference.radius_problems(ref, report.omega, fabricated)
    assert problems == [f"B3_th2 = {fabricated['B3_th2']!r} below reference omega {ref.lo!r}"]


@pytest.mark.parametrize("ensemble", ["nilpotent-lift", "a-selfadjoint"])
def test_equality_cases_are_checked(ensemble):
    rng = np.random.default_rng(3)
    ctx = generators.gen_psd(6, 3, rng)
    op = generators.gen_compatible(ctx, rng, ensemble)
    ref = reference.reference(np.array(ctx.a), np.array(op.t))
    omega = ref.norm / 2 if ensemble == "nilpotent-lift" else ref.norm
    assert reference.operator_problems(ref, ensemble, ref.norm, omega, ref.spectral) == []
    # the other ensemble's equality does not hold, so swapping them is flagged
    other = "a-selfadjoint" if ensemble == "nilpotent-lift" else "nilpotent-lift"
    assert reference.operator_problems(ref, other, ref.norm, omega, ref.spectral)
