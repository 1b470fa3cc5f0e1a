"""Campaign runner: determinism, violation plumbing, output files."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihilbert import (
    DEFAULT_TOL,
    CampaignConfig,
    GenSpec,
    GelfandDivergence,
    InstanceWork,
    SemiHilbertError,
    ToleranceConfig,
    bounds,
    campaign,
    gen_block_matrix,
    radii,
    run_campaign,
)
from semihilbert.bounds import BOUND_KEYS
from semihilbert.campaign import instance_invariants
from semihilbert.core import top_singular
from semihilbert.generators import ENSEMBLES
from semihilbert.serialize import report_to_dict

from conftest import CAMPAIGN_TOL, corrupt_bound

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


def test_reports_hold_python_floats_and_bools():
    # json.dumps rejects numpy bools, and the CSV repr of a numpy float is
    # "np.float64(...)", so the search arrays end at the report boundary
    for report in run_campaign(small_config()).reports:
        assert type(report.omega) is float
        assert all(type(v) is float for v in report.bounds.values())
        assert all(type(v) is bool for v in report.holds.values())
        assert type(report.refinement_ok) is bool


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
    # 20 instances make two chunks, so the parallel run uses the process pool
    out1, out2 = tmp_path / "serial", tmp_path / "parallel"
    run_campaign(small_config(out=out1, trials=10))
    run_campaign(small_config(out=out2, parallelism=2, trials=10))
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
    "error", [GelfandDivergence("power sequence fell below"), np.linalg.LinAlgError("no convergence")]
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", 2.5),
        ("trials", True),
        ("trials", 0),
        ("parallelism", 2.0),
        ("parallelism", True),
    ],
)
def test_config_rejects_non_integer_counts_by_name(field, value):
    spec = GenSpec(n=2, d=2, rank=2)
    with pytest.raises(ValueError, match=field):
        CampaignConfig(**dict({"trials": 1, "gens": (spec,)}, **{field: value}))


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


def test_invariants_flag_radius_below_pair_radius(clean_instance):
    # every pair radius is a lower end of omega, so the check fires just below
    # the largest of them and not at it
    work, report = clean_instance
    top = float(work.pair_omegas.max())
    assert "radius_below_pair_radius" not in instance_invariants(work, replace(report, omega=top))
    assert "radius_below_pair_radius" in instance_invariants(work, replace(report, omega=top - 1e-3))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, CAMPAIGN_TOL])
@pytest.mark.parametrize("d, seed", [(3, 12), (4, 28), (4, 46)])
def test_rank_one_sparse_instances_keep_hat_spectral_domination(d, seed, tol):
    # the flattened reductions are nilpotent (r_A = 0) and eigvals finds
    # Jordan-3 noise near 2e-6; for r = 1 the flattened reduction is the grid
    # of the 1 x 1 blockwise reductions, whose moduli are the hat matrix, so
    # both eigenvalue problems see the same cycle products
    spec = GenSpec(n=2, d=d, rank=1, ensemble="sparse", seed=seed)
    work = InstanceWork(gen_block_matrix(spec, tol), tol)
    eps = np.finfo(float).eps
    assert np.abs(np.abs(work.flat_reduced) - work.norms).max() <= eps * work.norms.max()
    assert "hat_spectral_domination" not in instance_invariants(work, work.report())


@pytest.mark.parametrize("tol", [DEFAULT_TOL, CAMPAIGN_TOL])
@pytest.mark.parametrize("d, n", [(5, 4), (2, 6)])
def test_large_scale_rank_one_nilpotent_instance_is_clean(d, n, tol):
    # the reduction is exactly zero, so the pair symmetry check compares
    # rounding noise of size eps ||T|| ~ 1e-10; its slack scales with ||T||
    spec = GenSpec(n=n, d=d, rank=1, ensemble="nilpotent-lift", scale=1e6, seed=0)
    work = InstanceWork(gen_block_matrix(spec, tol), tol)
    report = work.report()
    assert report.all_hold and report.refinement_ok
    assert instance_invariants(work, report) == []


def alone(payload):
    """The row of one payload run on its own, without a chunk: a report (as JSON
    text, so equal means bitwise equal) and its failed invariants, or the
    error record."""
    gi, spec, trial, tol = payload
    seed = spec.seed + trial
    instance_id = campaign._instance_id(gi, spec, seed)
    try:
        work = InstanceWork(gen_block_matrix(replace(spec, seed=seed), tol), tol)
        report = work.report(instance_id)
        text = json.dumps(report_to_dict(report))
        return instance_id, text, instance_invariants(work, report), None
    except (SemiHilbertError, np.linalg.LinAlgError) as exc:
        error = {"instance_id": instance_id, "error": type(exc).__name__, "message": str(exc)}
        return instance_id, None, [], error


def chunked(rows):
    return [(i, None if r is None else json.dumps(report_to_dict(r)), f, e) for i, r, f, e in rows]


@st.composite
def payloads(draw):
    """Payloads of up to 16 instances mixing d 1-4, n 1-3, every rank, every
    ensemble and scales 1e-6 to 1e6, so equal orders meet across specs."""
    out = []
    for gi in range(draw(st.integers(1, 16))):
        n = draw(st.integers(1, 3))
        spec = GenSpec(
            n=n,
            d=draw(st.integers(1, 4)),
            rank=draw(st.integers(1, n)),
            ensemble=draw(st.sampled_from(ENSEMBLES)),
            scale=10.0 ** draw(st.integers(-6, 6)),
            seed=draw(st.integers(0, 10_000)),
        )
        out.append((gi, spec, draw(st.integers(0, 3)), FAST_TOL))
    return out


@settings(max_examples=25, deadline=None, database=None)
@given(payloads())
def test_lockstep_chunk_equals_instances_run_alone(chunk):
    # a chunk lists the instances that failed before the search first; the
    # payloads are in instance-id order
    rows = sorted(chunked(campaign._run_chunk(chunk)), key=lambda row: row[0])
    assert rows == [alone(p) for p in chunk]


def test_error_in_the_lockstep_search_stays_with_its_instance(tmp_path, monkeypatch):
    # a mixed chunk: flattened orders 2 to 6 and pair orders 1 to 3, the
    # instance poisoned shares both of its searches with other instances
    gens = (
        GenSpec(n=2, d=2, rank=1, seed=0),
        GenSpec(n=3, d=2, rank=3, ensemble="sparse", seed=10),
        GenSpec(n=2, d=3, rank=2, ensemble="a-selfadjoint", seed=20),
        GenSpec(n=3, d=3, rank=2, ensemble="nilpotent-lift", seed=30),
    )

    def config(out):
        return CampaignConfig(trials=3, gens=gens, tol=FAST_TOL, output_path=str(out))

    run_campaign(config(tmp_path / "clean"))
    poisoned_id = "g02-d3n2r2-a-selfadjoint-s000021"
    target = InstanceWork(gen_block_matrix(replace(gens[2], seed=21), FAST_TOL), FAST_TOL)
    real = radii.rotation_eig_derivatives
    searched = []  # stack sizes of the flattened-radius searches

    def poisoned(mats):
        # the Newton oracle fails whenever the target's matrix is in the stack
        searched.append(len(mats))
        oracle = real(mats)
        hit = any(np.array_equal(m, target.flat_reduced) for m in mats)

        def derivatives(rows, thetas):
            if hit:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return oracle(rows, thetas)

        return derivatives

    monkeypatch.setattr(radii, "rotation_eig_derivatives", poisoned)
    run_campaign(config(tmp_path / "broken"))
    summary = json.loads((tmp_path / "broken" / "summary.json").read_text())
    assert summary["instance_errors"] == [
        {
            "instance_id": poisoned_id,
            "error": "LinAlgError",
            "message": "Eigenvalues did not converge",
        }
    ]
    # orders 2 (3 instances) and 6 (9 instances) searched in lockstep, the
    # second raised, and then every instance searched alone
    assert searched == [3, 9] + [1] * 12
    clean = json.loads((tmp_path / "clean" / "reports.json").read_text())
    broken = json.loads((tmp_path / "broken" / "reports.json").read_text())
    assert broken == [r for r in clean if r["instance_id"] != poisoned_id]
    assert len(broken) == 11


def test_lockstep_reports_charge_each_instance_its_share_of_the_searches():
    # flattened orders 6, 6 and 4; pair orders 2, 3 and 2 with 6, 3 and 3
    # problems, the pairs i <= j: the first two share the order-6 search
    # equally, and the first and last the r = 2 pair search in the ratio 6 : 3
    # of their problems
    specs = (GenSpec(n=2, d=3, rank=2), GenSpec(n=3, d=2, rank=3), GenSpec(n=3, d=2, rank=2))
    works = [InstanceWork(gen_block_matrix(spec, FAST_TOL), FAST_TOL) for spec in specs]
    bounds.search_radii(works)
    shares = [w.search_seconds for w in works]
    assert shares[0]["omega"] == shares[1]["omega"]
    assert shares[0]["pairs"] == pytest.approx(shares[2]["pairs"] * 6 / 3, rel=1e-12)
    for work, share in zip(works, shares):
        report = work.report()
        assert report.timing["omega"] == share["omega"] > 0
        assert report.timing["B2_r2"] > share["pairs"] > 0
    reports = run_campaign(small_config()).reports
    assert all(r.timing["omega"] > 0 and r.timing["B2_r2"] > 0 for r in reports)
