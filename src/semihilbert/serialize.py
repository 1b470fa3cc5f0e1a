"""JSON and CSV wire formats.

Matrices travel as row-major arrays of [re, im] pairs.  Contexts serialize
their source matrix only; eigenpairs are recomputed on load.  Report
files written by the campaign runner contain no timing data so that
repeated runs with identical configuration are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from numbers import Integral

import numpy as np

from .blockops import BlockMatrix, assemble
from .bounds import BOUND_KEYS, BoundReport
from .config import DEFAULT_TOL, ToleranceConfig
from .core import PsdContext, make_context
from .errors import BadIndex, DimensionMismatch, SemiHilbertError

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "context_to_json",
    "context_from_json",
    "block_matrix_to_json",
    "block_matrix_from_json",
    "tolerance_to_json",
    "tolerance_from_json",
    "report_to_dict",
    "report_from_dict",
    "reports_to_json_text",
    "reports_to_csv_text",
]


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch(f"rows of [re, im] pairs are ragged: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise DimensionMismatch(f"expected rows of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def context_to_json(ctx: PsdContext) -> dict:
    return {"a": matrix_to_json(ctx.a)}


def context_from_json(data: dict, tol: ToleranceConfig = DEFAULT_TOL) -> PsdContext:
    return make_context(matrix_from_json(data["a"]), tol)


def block_matrix_to_json(bm: BlockMatrix) -> dict:
    return {
        "d": bm.d,
        "n": bm.n,
        "blocks": [matrix_to_json(bm.blocks[i, j]) for i in range(bm.d) for j in range(bm.d)],
        "a": matrix_to_json(bm.base_ctx.a),
    }


def _count_field(data: dict, name: str, error: type[SemiHilbertError]) -> int:
    """Field ``name`` of ``data``, raising ``error`` naming it unless it is an
    integer, not a bool, of at least 1."""
    value = data[name]
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise error(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


def block_matrix_from_json(data: dict, tol: ToleranceConfig = DEFAULT_TOL) -> BlockMatrix:
    d, n = _count_field(data, "d", BadIndex), _count_field(data, "n", DimensionMismatch)
    mats = [matrix_from_json(b) for b in data["blocks"]]
    if len(mats) != d * d:
        raise DimensionMismatch(f"expected {d * d} blocks, got {len(mats)}")
    ctx = make_context(matrix_from_json(data["a"]), tol)
    bm = assemble([mats[i * d : (i + 1) * d] for i in range(d)], ctx)
    if bm.n != n:
        raise DimensionMismatch(f"declared n = {n} but blocks are {bm.n}x{bm.n}")
    return bm


def tolerance_to_json(tol: ToleranceConfig) -> dict:
    return dataclasses.asdict(tol)


def tolerance_from_json(data: dict | None) -> ToleranceConfig:
    return ToleranceConfig(**(data or {}))


def report_to_dict(report: BoundReport, include_timing: bool = False) -> dict:
    out = {
        "instance_id": report.instance_id,
        "omega": report.omega,
        "bounds": {k: report.bounds[k] for k in BOUND_KEYS},
        "gaps": {k: report.gaps[k] for k in BOUND_KEYS},
        "holds": {k: report.holds[k] for k in BOUND_KEYS},
        "refinement_ok": report.refinement_ok,
    }
    if include_timing:
        out["timing"] = dict(report.timing)
    return out


def report_from_dict(data: dict) -> BoundReport:
    return BoundReport(
        instance_id=data["instance_id"],
        omega=data["omega"],
        bounds=dict(data["bounds"]),
        gaps=dict(data["gaps"]),
        holds=dict(data["holds"]),
        refinement_ok=data["refinement_ok"],
        timing=dict(data.get("timing", {})),
    )


def reports_to_json_text(reports: list[BoundReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=1, sort_keys=True) + "\n"


CSV_FIELDS = ("instance_id", "omega", *BOUND_KEYS, "min_gap", "all_hold")


def reports_to_csv_text(reports: list[BoundReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in reports:
        writer.writerow(
            [r.instance_id, repr(r.omega)]
            + [repr(r.bounds[k]) for k in BOUND_KEYS]
            + [repr(r.min_gap), r.all_hold]
        )
    return buf.getvalue()
