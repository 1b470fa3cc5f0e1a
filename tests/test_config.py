"""Tolerance configuration validation and error plumbing."""

import json

import numpy as np
import pytest

from semihilbert import GelfandDivergence, ToleranceConfig, a_spectral_radius
from semihilbert.cli import main
from semihilbert.serialize import matrix_to_json, tolerance_from_json
from semihilbert.generators import gen_compatible, gen_psd
import semihilbert.radii as radii


def test_tolerance_defaults():
    tol = ToleranceConfig()
    assert tol.rank_rtol == 1e-10
    assert tol.cmp_atol == 1e-8
    assert tol.theta_samples == 1024
    assert tol.theta_refine_tol == 1e-12
    assert tol.gelfand_max_power == 64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rank_rtol": 0.0},
        {"cmp_atol": -1e-9},
        {"theta_samples": 4},
        {"theta_refine_tol": 0.0},
        {"gelfand_max_power": 0},
        {"cmp_atol": float("nan")},
        {"rank_rtol": float("inf")},
        {"theta_refine_tol": float("nan")},
        {"theta_samples": 64.5},
        {"gelfand_max_power": 8.0},
    ],
)
def test_tolerance_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ToleranceConfig(**kwargs)


def test_gelfand_divergence_raised_on_broken_envelope(monkeypatch):
    ctx = gen_psd(3, 3, seed=0)
    op = gen_compatible(ctx, 1)
    monkeypatch.setattr(
        radii, "_gelfand_from_reduced", lambda reduced, tol: np.zeros(3)
    )
    with pytest.raises(GelfandDivergence):
        a_spectral_radius(op)


@pytest.mark.parametrize("field, raw", [("cmp_atol", "nan"), ("theta_refine_tol", "inf")])
def test_cli_and_json_reject_non_finite_tolerances(tmp_path, field, raw):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(matrix_to_json(np.eye(2))))
    with pytest.raises(ValueError, match=field):
        main(["compute", "--a", str(a), "--t", str(a), f"--{field.replace('_', '-')}", raw])
    with pytest.raises(ValueError, match=field):
        tolerance_from_json({field: float(raw)})
