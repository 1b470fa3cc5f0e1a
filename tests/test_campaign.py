"""Campaign runner: determinism, violation plumbing, output files."""

import json
from dataclasses import replace

import numpy as np
import pytest

from semihilbert import (
    DEFAULT_TOL,
    CampaignConfig,
    GenSpec,
    InstanceWork,
    RouteDisagreement,
    ToleranceConfig,
    campaign,
    gen_block_matrix,
    run_campaign,
)
from semihilbert.bounds import BOUND_KEYS
from semihilbert.campaign import instance_invariants
from semihilbert.core import top_singular

from conftest import corrupt_bound

FAST_TOL = ToleranceConfig(theta_samples=64, theta_refine_tol=1e-7)


def small_config(out=None, fmt="json", parallelism=1, trials=4):
    gens = (
        GenSpec(n=2, d=2, rank=2, ensemble="ginibre", seed=0),
        GenSpec(n=2, d=2, rank=1, ensemble="nilpotent-lift", seed=100),
    )
    return CampaignConfig(
        trials=trials,
        gens=gens,
        tol=FAST_TOL,
        output_path=None if out is None else str(out),
        output_format=fmt,
        parallelism=parallelism,
    )


def test_campaign_runs_clean():
    result = run_campaign(small_config())
    assert result.summary["instances"] == 8
    assert result.summary["violations"] == 0
    assert not result.invariant_failures
    assert all(r.all_hold and r.refinement_ok for r in result.reports)
    assert all(result.summary["min_gap"][k] >= -1e-8 for k in BOUND_KEYS)


def test_campaign_reports_sorted_by_instance_id():
    result = run_campaign(small_config())
    ids = [r.instance_id for r in result.reports]
    assert ids == sorted(ids)


def test_campaign_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    run_campaign(small_config(out=out1))
    run_campaign(small_config(out=out2))
    assert (out1 / "reports.json").read_bytes() == (out2 / "reports.json").read_bytes()


def test_campaign_parallel_matches_serial(tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    run_campaign(small_config(out=out1))
    run_campaign(small_config(out=out2, parallelism=2))
    assert (out1 / "reports.json").read_bytes() == (out2 / "reports.json").read_bytes()


def test_campaign_csv_output(tmp_path):
    run_campaign(small_config(out=tmp_path, fmt="csv"))
    lines = (tmp_path / "reports.csv").read_text().splitlines()
    assert lines[0].startswith("instance_id,omega,B1_thf1")
    assert len(lines) == 9


def test_campaign_summary_file(tmp_path):
    run_campaign(small_config(out=tmp_path))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["instances"] == 8
    assert summary["violations"] == 0
    assert "wall_time_s" in summary


def test_corrupted_bound_is_reported(monkeypatch):
    corrupt_bound(monkeypatch, "B3_th2")
    result = run_campaign(small_config(trials=2))
    assert result.summary["violations"] > 0
    assert result.summary["bound_violations"]["B3_th2"] == 4
    assert all(v == 0 for k, v in result.summary["bound_violations"].items() if k != "B3_th2")


@pytest.mark.parametrize(
    "error", [RouteDisagreement("routes differ"), np.linalg.LinAlgError("no convergence")]
)
def test_instance_error_is_recorded_and_the_campaign_goes_on(tmp_path, monkeypatch, error):
    clean = tmp_path / "clean"
    run_campaign(small_config(out=clean))
    real = campaign.gen_block_matrix

    def failing(spec, tol):
        if spec.ensemble == "nilpotent-lift" and spec.seed == 102:
            raise error
        return real(spec, tol)

    monkeypatch.setattr(campaign, "gen_block_matrix", failing)
    result = run_campaign(small_config(out=tmp_path / "broken"))
    summary = json.loads((tmp_path / "broken" / "summary.json").read_text())
    assert summary["instance_errors"] == [
        {
            "instance_id": "g01-d2n2r1-nilpotent-lift-s000102",
            "error": type(error).__name__,
            "message": str(error),
        }
    ]
    assert summary["instances"] == 7 and summary["violations"] == 1
    kept = json.loads((clean / "reports.json").read_text())
    assert json.loads((tmp_path / "broken" / "reports.json").read_text()) == [
        r for r in kept if r["instance_id"] != "g01-d2n2r1-nilpotent-lift-s000102"
    ]
    assert len(result.reports) == 7


def test_clean_campaign_records_no_instance_errors():
    assert run_campaign(small_config(trials=1)).summary["instance_errors"] == []


def test_corrupt_unknown_bound_rejected(monkeypatch):
    with pytest.raises(ValueError):
        corrupt_bound(monkeypatch, "B9_unknown")


def test_config_validation():
    spec = GenSpec(n=2, d=2, rank=2)
    with pytest.raises(ValueError):
        CampaignConfig(trials=0, gens=(spec,))
    with pytest.raises(ValueError):
        CampaignConfig(trials=1, gens=(spec,), output_format="xml")
    with pytest.raises(ValueError, match="gens"):
        CampaignConfig(trials=1, gens=())


@pytest.fixture
def clean_instance():
    """The work object of a non-nilpotent instance and its clean report."""
    work = InstanceWork(gen_block_matrix(GenSpec(n=3, d=3, rank=2, seed=4), FAST_TOL), FAST_TOL)
    report = work.report()
    assert instance_invariants(work, report) == []
    return work, report


def test_invariants_flag_radius_above_seminorm(clean_instance):
    work, report = clean_instance
    norm = float(top_singular(work.flat_reduced))
    assert "radius_above_seminorm" in instance_invariants(work, replace(report, omega=2.0 * norm))


def test_invariants_flag_radius_below_half_seminorm(clean_instance):
    work, report = clean_instance
    assert "radius_below_half_seminorm" in instance_invariants(work, replace(report, omega=0.0))


def test_invariants_flag_disagreeing_sharp_routes(clean_instance):
    work, report = clean_instance
    work.__dict__["sharps"] = work.sharps + 1e-6
    assert instance_invariants(work, report) == ["sharp_route_agreement"]


@pytest.mark.xfail(
    strict=True,
    reason="the flattened reduction is nilpotent (r_A = 0), but eigvals returns a "
    "Jordan-3 triple at 2.04e-6 while rho(hat) is 1.93e-6 from 1e-16 entries, "
    "beyond the 2.8e-8 slack",
)
@pytest.mark.parametrize(
    "tol", [DEFAULT_TOL, ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7)]
)
def test_nilpotent_sparse_instance_keeps_hat_spectral_domination(tol):
    work = InstanceWork(gen_block_matrix(GenSpec(n=2, d=3, rank=1, ensemble="sparse", seed=12), tol), tol)
    assert "hat_spectral_domination" not in instance_invariants(work, work.report())


@pytest.mark.parametrize(
    "tol", [DEFAULT_TOL, ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7)]
)
@pytest.mark.parametrize("d, n", [(5, 4), (2, 6)])
def test_large_scale_rank_one_nilpotent_instance_is_clean(d, n, tol):
    # the reduction is exactly zero, so the pair symmetry check (d = 5) and
    # the sharp route check (d = 2) compare rounding noise of size
    # eps ||T|| ~ 1e-10; their slack scales with ||T||
    spec = GenSpec(n=n, d=d, rank=1, ensemble="nilpotent-lift", scale=1e6, seed=0)
    work = InstanceWork(gen_block_matrix(spec, tol), tol)
    report = work.report()
    assert report.all_hold and report.refinement_ok
    assert instance_invariants(work, report) == []
