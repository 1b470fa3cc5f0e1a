"""Wire formats: matrices, contexts, block matrices and reports."""

import numpy as np
import pytest

from semihilbert import BadIndex, DimensionMismatch, RaggedBlocks, evaluate_all, make_context
from semihilbert.serialize import (
    block_matrix_from_json,
    block_matrix_to_json,
    context_from_json,
    context_to_json,
    matrix_from_json,
    matrix_to_json,
    report_from_dict,
    report_to_dict,
    reports_to_csv_text,
    reports_to_json_text,
    tolerance_from_json,
    tolerance_to_json,
)
from semihilbert.config import ToleranceConfig

from test_blockops import random_block_matrix


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    data = matrix_to_json(m)
    assert data[0][0] == [pytest.approx(m[0, 0].real), pytest.approx(m[0, 0].imag)]
    assert np.array_equal(matrix_from_json(data), m)


def test_matrix_from_json_validates_shape():
    with pytest.raises(DimensionMismatch):
        matrix_from_json([[1.0, 2.0], [3.0, 4.0]])


def test_context_serializes_source_only():
    ctx = make_context(np.array([[2.0, 1.0], [1.0, 2.0]]))
    data = context_to_json(ctx)
    assert set(data) == {"a"}
    again = context_from_json(data)
    assert np.array_equal(again.a, ctx.a)
    assert np.array_equal(again.eigvals, ctx.eigvals)
    assert np.array_equal(again.eigvecs, ctx.eigvecs)


def test_block_matrix_roundtrip():
    bm = random_block_matrix(2, 3, 2, seed=5)
    data = block_matrix_to_json(bm)
    assert data["d"] == 2 and data["n"] == 3 and len(data["blocks"]) == 4
    again = block_matrix_from_json(data)
    assert np.array_equal(again.blocks, bm.blocks)
    assert np.array_equal(again.base_ctx.a, bm.base_ctx.a)


def test_malformed_block_files_raise_package_errors():
    data = block_matrix_to_json(random_block_matrix(2, 2, 2, seed=5))
    with pytest.raises(DimensionMismatch, match="declared n = 3"):
        block_matrix_from_json(dict(data, n=3))
    ragged = dict(data, blocks=[*data["blocks"][:3], matrix_to_json(np.eye(3))])
    with pytest.raises(RaggedBlocks):
        block_matrix_from_json(ragged)
    with pytest.raises(BadIndex):
        block_matrix_from_json(dict(data, d=0, blocks=[]))
    with pytest.raises(DimensionMismatch, match="ragged"):
        matrix_from_json([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]])


@pytest.mark.parametrize("value", [1.5, 1.0, True, "1", None, 0, -2])
def test_block_counts_must_be_positive_integers(value):
    # int() would truncate 1.5, True and "1" to d = 1 and accept them
    data = block_matrix_to_json(random_block_matrix(1, 2, 2, seed=5))
    with pytest.raises(BadIndex, match=rf"d must be an integer of at least 1, got {value!r}"):
        block_matrix_from_json(dict(data, d=value))
    with pytest.raises(DimensionMismatch, match=rf"n must be an integer of at least 1, got {value!r}"):
        block_matrix_from_json(dict(data, n=value))
    assert block_matrix_from_json(dict(data, d=np.int64(1), n=np.int64(2))).n == 2


def test_tolerance_roundtrip():
    tol = ToleranceConfig(theta_samples=64)
    assert tolerance_from_json(tolerance_to_json(tol)) == tol
    assert tolerance_from_json(None) == ToleranceConfig()


def test_report_roundtrip_excludes_timing_by_default():
    bm = random_block_matrix(2, 2, 2, seed=6)
    rep = evaluate_all(bm, instance_id="roundtrip")
    data = report_to_dict(rep)
    assert "timing" not in data
    again = report_from_dict(data)
    assert again.instance_id == "roundtrip"
    assert again.bounds == rep.bounds
    assert again.holds == rep.holds
    timed = report_to_dict(rep, include_timing=True)
    assert set(timed["timing"]) == set(rep.timing)


def test_reports_text_formats():
    bm = random_block_matrix(2, 2, 2, seed=7)
    reps = [evaluate_all(bm, instance_id=f"i{k}") for k in range(2)]
    text = reports_to_json_text(reps)
    assert text.count('"instance_id"') == 2
    csv_text = reports_to_csv_text(reps)
    lines = csv_text.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "i0"
