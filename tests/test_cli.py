"""Command-line front end: subcommands, files, env overrides, exit codes."""

import json

import numpy as np
import pytest

from semihilbert import ConstructionFailed, campaign
from semihilbert.cli import main
from semihilbert.serialize import block_matrix_to_json, matrix_to_json

from conftest import corrupt_bound
from test_blockops import random_block_matrix


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def operator_files(tmp_path):
    a = write_json(tmp_path / "a.json", matrix_to_json(np.diag([1.0, 0.0])))
    t = write_json(tmp_path / "t.json", matrix_to_json(np.array([[1, 0], [3, 4.0]])))
    return a, t


def campaign_file(tmp_path, trials=2):
    cfg = {
        "trials": trials,
        "gens": [
            {"n": 2, "d": 2, "rank": 2, "ensemble": "ginibre", "scale": 1.0, "seed": 0},
        ],
        "tol": {"theta_samples": 64, "theta_refine_tol": 1e-7},
        "parallelism": 1,
    }
    return write_json(tmp_path / "campaign.json", cfg)


def test_compute_outputs_quantities(operator_files, capsys):
    a, t = operator_files
    assert main(["compute", "--a", a, "--t", t]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a_norm"] == pytest.approx(1.0)
    assert out["omega_A"] == pytest.approx(1.0)
    assert out["r_A"] == pytest.approx(1.0)
    assert out["in_ba"] and out["a_bounded"]
    sharp = np.asarray(out["sharp"], dtype=float)
    assert sharp[0][0] == pytest.approx([1.0, 0.0])


def test_compute_unbounded_reports_nulls(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", matrix_to_json(np.diag([1.0, 0.0])))
    t = write_json(tmp_path / "t.json", matrix_to_json(np.array([[0, 1], [0, 0.0]])))
    assert main(["compute", "--a", a, "--t", t]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["a_norm"] is None and out["sharp"] is None
    assert not out["a_bounded"] and not out["in_ba"]


def test_bounds_subcommand(tmp_path, capsys):
    bm = random_block_matrix(2, 2, 2, seed=3)
    blocks = write_json(tmp_path / "tt.json", block_matrix_to_json(bm))
    assert main(["bounds", "--blocks", blocks, "--theta-samples", "64"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["bounds"]) == {
        "B1_thf1", "B2_r2", "B3_th2", "B4_diag_offdiag", "B5_re_im", "B6_maxdiag", "B7_prior",
    }
    assert all(out["holds"].values())
    assert "timing" in out


def test_verify_clean_run(tmp_path, capsys):
    cfg = campaign_file(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["violations"] == 0
    assert (out_dir / "reports.json").exists()
    assert (out_dir / "summary.json").exists()


def test_verify_flag_overrides(tmp_path, capsys):
    cfg = campaign_file(tmp_path, trials=5)
    assert main(["verify", "--config", cfg, "--trials", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["instances"] == 1


def test_verify_env_override(tmp_path, capsys, monkeypatch):
    cfg = campaign_file(tmp_path, trials=5)
    monkeypatch.setenv("SEMIHILBERT_TRIALS", "2")
    assert main(["verify", "--config", cfg]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["instances"] == 2


def test_flag_beats_env(tmp_path, capsys, monkeypatch):
    cfg = campaign_file(tmp_path, trials=5)
    monkeypatch.setenv("SEMIHILBERT_TRIALS", "2")
    assert main(["verify", "--config", cfg, "--trials", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["instances"] == 3


def test_verify_corrupted_bound_exits_nonzero(tmp_path, capsys, monkeypatch):
    cfg = campaign_file(tmp_path)
    corrupt_bound(monkeypatch, "B1_thf1")
    code = main(["verify", "--config", cfg])
    assert code == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["bound_violations"]["B1_thf1"] > 0


def test_verify_instance_error_exits_nonzero(tmp_path, capsys, monkeypatch):
    cfg = campaign_file(tmp_path)

    def failing(spec, tol):
        raise ConstructionFailed("no draw admitted a weighted adjoint")

    monkeypatch.setattr(campaign, "gen_block_matrix", failing)
    assert main(["verify", "--config", cfg]) == 1
    summary = json.loads(capsys.readouterr().out)
    assert [e["error"] for e in summary["instance_errors"]] == ["ConstructionFailed"] * 2
    assert summary["violations"] == 2 and summary["instances"] == 0


def test_verify_output_from_config_file(tmp_path, capsys):
    cfg_data = {
        "trials": 1,
        "gens": [{"n": 2, "d": 2, "rank": 2, "seed": 0}],
        "tol": {"theta_samples": 64, "theta_refine_tol": 1e-7},
        "output": {"path": str(tmp_path / "from_config"), "format": "csv"},
    }
    cfg = write_json(tmp_path / "campaign.json", cfg_data)
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    assert (tmp_path / "from_config" / "reports.csv").exists()


def test_verify_csv_format(tmp_path, capsys):
    cfg = campaign_file(tmp_path)
    out_dir = tmp_path / "csvout"
    assert main(["verify", "--config", cfg, "--out", str(out_dir), "--format", "csv"]) == 0
    assert (out_dir / "reports.csv").exists()


def test_selftest_passes(capsys):
    assert main(["selftest", "--theta-samples", "128"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS  tightness witness radius" in out
