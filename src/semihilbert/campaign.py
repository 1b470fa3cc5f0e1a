"""Randomized verification campaigns over bound evaluators and invariants.

Each instance is generated from (spec, trial) alone, so campaigns can run
in parallel and still produce byte-identical reports: workers return
results keyed by instance id and the merge is a deterministic sort.  Every
instance builds one :class:`InstanceWork`, which produces the bound report
and then feeds a small suite of cheap structural invariants (seminorm
equivalence, spectral domination, comparison-matrix inequalities) from the
same cached reductions; their failures count as violations.  An instance
that raises a package or linear-algebra error is recorded in the summary's
``instance_errors``, also a violation, and the campaign goes on.

The instances run in chunks of 16 consecutive ones, serially or one chunk
per worker task.  A chunk generates, tests and reduces each instance on its
own, then searches the radii of all of them in lockstep, one circle search
per matrix order (:func:`semihilbert.bounds.search_radii`): the 12 acceptance
specs with one trial each make 10 searches for their 12 flattened radii and
76 pair problems, d(d+1)/2 per instance.
Lockstep searches are independent per problem, so the reports are bitwise
those of instances run alone, whatever the chunking.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import BOUND_KEYS, BoundReport, InstanceWork, search_radii
from .config import DEFAULT_TOL, ToleranceConfig, require_integer
from .core import spectral_norm
from .errors import SemiHilbertError
from .generators import GenSpec, gen_block_matrix
from .radii import classical_spectral_radius, reduced_spectral_radius
from .serialize import reports_to_csv_text, reports_to_json_text

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign", "instance_invariants"]

# consecutive instances per chunk: a chunk searches its radii in lockstep, and
# is the unit of work handed to a worker process
_CHUNK = 16
_INSTANCE_ERRORS = (SemiHilbertError, np.linalg.LinAlgError)


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
        require_integer(self, "trials", 1)
        require_integer(self, "parallelism", 1)
        if not self.gens:
            raise ValueError("gens must name at least one generation spec")
        if self.output_format not in ("json", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")


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
    return failures


def _instance_id(gi: int, spec: GenSpec, seed: int) -> str:
    return f"g{gi:02d}-d{spec.d}n{spec.n}r{spec.rank}-{spec.ensemble}-s{seed:06d}"


def _error_row(instance_id: str, exc: Exception) -> tuple[str, None, list[str], dict]:
    error = {"instance_id": instance_id, "error": type(exc).__name__, "message": str(exc)}
    return instance_id, None, [], error


def _run_chunk(chunk) -> list[tuple[str, BoundReport | None, list[str], dict | None]]:
    """Instance id, report, failed invariants and, when it raised, the error
    record of every payload in ``chunk``.

    Generation, membership and the reduction run per instance; then one
    :func:`search_radii` call fills the radii of every instance that got that
    far, in one lockstep search per matrix order; the reports and invariants
    run per instance again.  Should the lockstep search raise, it has filled
    nothing, and each instance searches alone inside its report, so the error
    is recorded against its own instance.
    """
    rows, works = [], {}
    for gi, spec, trial, tol in chunk:
        seed = spec.seed + trial
        instance_id = _instance_id(gi, spec, seed)
        try:
            work = InstanceWork(gen_block_matrix(replace(spec, seed=seed), tol), tol)
        except _INSTANCE_ERRORS as exc:
            rows.append(_error_row(instance_id, exc))
        else:
            works[instance_id] = work
    try:
        search_radii(list(works.values()))
    except _INSTANCE_ERRORS:
        pass  # the reports below search one instance at a time
    for instance_id, work in works.items():
        try:
            report = work.report(instance_id)
            rows.append((instance_id, report, instance_invariants(work, report), None))
        except _INSTANCE_ERRORS as exc:
            rows.append(_error_row(instance_id, exc))
    return rows


def run_campaign(cfg: CampaignConfig) -> CampaignResult:
    """Generate, evaluate and summarize trials x gens instances.

    Writes per-instance reports (and a summary) when an output path is
    configured.  The summary counts violations per bound and per invariant
    and lists the instances that raised, which have no report; the campaign
    is considered failed when any count is nonzero or any instance raised.
    """
    t_start = time.perf_counter()
    payloads = [
        (gi, spec, trial, cfg.tol)
        for gi, spec in enumerate(cfg.gens)
        for trial in range(cfg.trials)
    ]
    chunks = [payloads[i : i + _CHUNK] for i in range(0, len(payloads), _CHUNK)]
    if cfg.parallelism > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.parallelism) as pool:
            done = list(pool.map(_run_chunk, chunks))
    else:
        done = [_run_chunk(c) for c in chunks]
    rows = sorted((row for chunk_rows in done for row in chunk_rows), key=lambda r: r[0])

    reports = [r[1] for r in rows if r[1] is not None]
    invariant_failures = {r[0]: r[2] for r in rows if r[2]}
    instance_errors = [r[3] for r in rows if r[3] is not None]

    bound_violations = {k: sum(not r.holds[k] for r in reports) for k in BOUND_KEYS}
    min_gap = {k: min((r.gaps[k] for r in reports), default=None) for k in BOUND_KEYS}
    refinement_failures = sum(not r.refinement_ok for r in reports)
    invariant_violations = dict(Counter(n for names in invariant_failures.values() for n in names))

    violations = (
        sum(bound_violations.values())
        + refinement_failures
        + sum(invariant_violations.values())
        + len(instance_errors)
    )
    summary = {
        "instances": len(reports),
        "violations": violations,
        "bound_violations": bound_violations,
        "refinement_failures": refinement_failures,
        "invariant_violations": invariant_violations,
        "instance_errors": instance_errors,
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
