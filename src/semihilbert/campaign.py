"""Randomized verification campaigns over bound evaluators and invariants.

Each instance is generated from (spec, trial) alone, so campaigns can run
instance-parallel and still produce byte-identical reports: workers return
results keyed by instance id and the merge is a deterministic sort.  Every
instance builds one :class:`InstanceWork`, which produces the bound report
and then feeds a small suite of cheap structural invariants (seminorm
equivalence, spectral domination, comparison-matrix inequalities, blockwise
versus lifted adjoint) from the same cached reductions; their failures count
as violations.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .blockops import flatten
from .bounds import BOUND_KEYS, BoundReport, InstanceWork
from .config import DEFAULT_TOL, ToleranceConfig
from .core import spectral_norm
from .generators import GenSpec, gen_block_matrix
from .radii import classical_spectral_radius, reduced_spectral_radius
from .serialize import reports_to_csv_text, reports_to_json_text

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign", "instance_invariants"]


@dataclass(frozen=True)
class CampaignConfig:
    """A verification campaign: trials per generation spec plus output routing."""

    trials: int
    gens: tuple[GenSpec, ...]
    tol: ToleranceConfig = DEFAULT_TOL
    output_path: str | None = None
    output_format: str = "json"
    parallelism: int = 1

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.gens:
            raise ValueError("gens must name at least one generation spec")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


@dataclass
class CampaignResult:
    reports: list[BoundReport]
    invariant_failures: dict[str, list[str]]
    summary: dict


def instance_invariants(work: InstanceWork, report: BoundReport) -> list[str]:
    """Cheap per-instance structural checks on the cached intermediates of
    ``work``; returns the names that failed."""
    failures = []
    tol = work.tol
    reduced = work.flat_reduced
    norm = spectral_norm(reduced)
    slack = tol.cmp_atol * (1.0 + norm)
    omega = report.omega

    if omega > norm + slack:
        failures.append("radius_above_seminorm")
    if omega < 0.5 * norm - slack:
        failures.append("radius_below_half_seminorm")

    spectral = reduced_spectral_radius(reduced, tol)
    if spectral > omega + slack:
        failures.append("spectral_above_radius")

    hat = work.norms
    if spectral > classical_spectral_radius(hat) + slack:
        failures.append("hat_spectral_domination")
    if norm > spectral_norm(hat) + slack:
        failures.append("hat_norm_domination")

    # the reduction is multiplicative, so the reduction of T^2 is R^2
    power_bound = 0.5 * (norm + np.sqrt(spectral_norm(reduced @ reduced)))
    if omega > power_bound + slack:
        failures.append("power_refinement")

    # both routes carry rounding of the unreduced operator, so its norm scales the slack
    blockwise = flatten(replace(work.bm, blocks=np.swapaxes(work.sharps, 0, 1)))
    route_slack = 1e-10 * (1.0 + norm + spectral_norm(work.flat.t))
    if spectral_norm(blockwise.t - work.flat_sharp.t) > route_slack:
        failures.append("sharp_route_agreement")
    return failures


def _instance_id(gi: int, spec: GenSpec, seed: int) -> str:
    return f"g{gi:02d}-d{spec.d}n{spec.n}r{spec.rank}-{spec.ensemble}-s{seed:06d}"


def _run_instance(payload) -> tuple[str, BoundReport, list[str]]:
    gi, spec, trial, tol = payload
    seed = spec.seed + trial
    instance_id = _instance_id(gi, spec, seed)
    work = InstanceWork(gen_block_matrix(replace(spec, seed=seed), tol), tol)
    report = work.report(instance_id)
    return instance_id, report, instance_invariants(work, report)


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Generate, evaluate and summarize trials x gens instances.

    Writes per-instance reports (and a summary) when an output path is
    configured.  The summary counts violations per bound and per invariant;
    the campaign is considered failed when any count is nonzero.
    """
    t_start = time.perf_counter()
    payloads = [
        (gi, spec, trial, cfg.tol)
        for gi, spec in enumerate(cfg.gens)
        for trial in range(cfg.trials)
    ]
    if cfg.parallelism > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            rows = list(pool.map(_run_instance, payloads, chunksize=16))
    else:
        rows = [_run_instance(p) for p in payloads]
    rows.sort(key=lambda r: r[0])

    reports = [r[1] for r in rows]
    invariant_failures = {r[0]: r[2] for r in rows if r[2]}

    bound_violations = {k: sum(not r.holds[k] for r in reports) for k in BOUND_KEYS}
    min_gap = {k: min(r.gaps[k] for r in reports) for k in BOUND_KEYS}
    refinement_failures = sum(not r.refinement_ok for r in reports)
    invariant_violations = dict(Counter(n for names in invariant_failures.values() for n in names))

    violations = (
        sum(bound_violations.values())
        + refinement_failures
        + sum(invariant_violations.values())
    )
    summary = {
        "instances": len(reports),
        "violations": violations,
        "bound_violations": bound_violations,
        "refinement_failures": refinement_failures,
        "invariant_violations": invariant_violations,
        "min_gap": min_gap,
        "wall_time_s": time.perf_counter() - t_start,
    }

    if cfg.output_path is not None:
        _write_outputs(cfg, reports, summary)
    return CampaignResult(reports=reports, invariant_failures=invariant_failures, summary=summary)


def _write_outputs(cfg: CampaignConfig, reports: list[BoundReport], summary: dict) -> None:
    out = Path(cfg.output_path)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.output_format == "json":
        (out / "reports.json").write_text(reports_to_json_text(reports))
    else:
        (out / "reports.csv").write_text(reports_to_csv_text(reports))
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
