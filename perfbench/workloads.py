"""The benchmark's workloads: inputs made from a seed, timed rounds of
operations, and the check of every output against :mod:`reference`.

Every call into the program goes through a module attribute
(``core.a_op_norm``, not an imported name), so that the tracer's wrappers
see the benchmark's own calls too.  A round runs the same operations on
every seed, so the share of failed operations does not depend on run length.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

import reference
from semihilbert import bounds, campaign, core, generators, radii
from semihilbert.config import DEFAULT_TOL, ToleranceConfig

# the acceptance suite's campaign tolerance and generation specs
CAMPAIGN_TOL = ToleranceConfig(theta_samples=128, theta_refine_tol=1e-7)
ACCEPTANCE_SPECS = tuple(
    generators.GenSpec(n=n, d=d, rank=rank, ensemble="ginibre", scale=1.0, seed=0)
    for d in (2, 3, 4)
    for n in (2, 3)
    for rank in (n, n - 1)
)


@dataclass
class Op:
    """One operation: which input it ran on, what the program returned, and
    the exception it raised (``None`` when it returned)."""

    key: object
    value: object
    error: str | None


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _timed(fn, latencies: list[float]):
    t0 = time.perf_counter()
    try:
        value, error = fn(), None
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        value, error = None, _describe(exc)
    latencies.append(time.perf_counter() - t0)
    return value, error


def _statuses(ops: list[Op], problems) -> list[tuple[str, str] | None]:
    """Per op: None when correct, ("raised", msg) or ("wrong", msg) otherwise."""
    out = []
    for op in ops:
        if op.error is not None:
            out.append(("raised", op.error))
            continue
        found = problems(op)
        out.append(("wrong", "; ".join(found)) if found else None)
    return out


@dataclass(frozen=True)
class SingleOperator:
    ensemble: str
    op: core.Operator


class OperatorRadii:
    """Norm, numerical radius and spectral radius of single operators at
    DEFAULT_TOL; one op is the three queries on one operator."""

    SIZES = (4, 8, 16)
    ENSEMBLES = ("ginibre", "nilpotent-lift", "a-selfadjoint", "sparse")

    def setup(self, seed: int, workdir: Path) -> list[SingleOperator]:
        inputs = []
        for i, (n, deficient, ens) in enumerate(product(self.SIZES, (False, True), self.ENSEMBLES)):
            rank = n // 2 if deficient else n
            rng = np.random.default_rng([seed, i])
            ctx = generators.gen_psd(n, rank, rng)
            op = generators.gen_compatible(ctx, rng, ens)
            inputs.append(SingleOperator(ens, op))
        return inputs

    def run_round(self, inputs, round_index: int, latencies: list[float]) -> list[Op]:
        ops = []
        for i, item in enumerate(inputs):
            value, error = _timed(
                lambda: (
                    core.a_op_norm(item.op, DEFAULT_TOL),
                    radii.a_numerical_radius(item.op, DEFAULT_TOL),
                    radii.a_spectral_radius(item.op, DEFAULT_TOL),
                ),
                latencies,
            )
            ops.append(Op(i, value, error))
        return ops

    def check(self, inputs, ops: list[Op]):
        refs: dict[int, reference.Reference] = {}

        def problems(op: Op) -> list[str]:
            item = inputs[op.key]
            if op.key not in refs:
                refs[op.key] = reference.reference(np.array(item.op.ctx.a), np.array(item.op.t))
            return reference.operator_problems(refs[op.key], item.ensemble, *op.value)

        return _statuses(ops, problems)

    def cleanup(self, inputs) -> None:
        pass


class BlocksLarge:
    """evaluate_all at CAMPAIGN_TOL on block matrices of flattened order 24 to 48
    with rank n/2; one op is one block matrix."""

    # (d, n, draws), in increasing cost: the draws put the latency median at
    # the centre of the (8, 4) class and the 90th percentile inside the
    # (8, 6) class, not on the edge between two classes
    CONFIGS = ((6, 4, 2), (8, 4, 2), (6, 6, 1), (8, 6, 1))

    def setup(self, seed: int, workdir: Path) -> list:
        draws = [(d, n) for d, n, count in self.CONFIGS for _ in range(count)]
        return [
            generators.gen_block_matrix(
                generators.GenSpec(n=n, d=d, rank=n // 2, seed=seed * 100 + k), CAMPAIGN_TOL
            )
            for k, (d, n) in enumerate(draws)
        ]

    def run_round(self, inputs, round_index: int, latencies: list[float]) -> list[Op]:
        ops = []
        for i, bm in enumerate(inputs):
            value, error = _timed(
                lambda: bounds.evaluate_all(bm, CAMPAIGN_TOL, instance_id=f"large{i}"),
                latencies,
            )
            ops.append(Op(i, value, error))
        return ops

    def check(self, inputs, ops: list[Op]):
        refs: dict[int, reference.Reference] = {}

        def problems(op: Op) -> list[str]:
            bm = inputs[op.key]
            if op.key not in refs:
                t = reference.flatten_blocks(np.array(bm.blocks))
                refs[op.key] = reference.reference(np.array(bm.base_ctx.a), t, bm.d)
            report = op.value
            found = reference.radius_problems(refs[op.key], report.omega, report.bounds)
            found += [f"program reports {k} violated" for k, ok in report.holds.items() if not ok]
            if not report.refinement_ok:
                found.append("program reports refinement failure")
            return found

        return _statuses(ops, problems)

    def cleanup(self, inputs) -> None:
        pass


@dataclass
class CampaignRound:
    index: int
    gens: tuple
    out: Path
    invariant_failures: dict


@dataclass
class CampaignInputs:
    seed: int
    tmp: Path


class CampaignAcceptance:
    """run_campaign over the acceptance specs at CAMPAIGN_TOL, serial, writing
    reports.json and summary.json; one round is one run_campaign call with
    one trial per spec, and one op is one instance.

    Every instance is checked against the files the round wrote; a seeded
    sample of REFERENCE_SAMPLE instances per round is also regenerated and
    checked against the reference, which costs about as much as the campaign.
    """

    REFERENCE_SAMPLE = 4

    def setup(self, seed: int, workdir: Path) -> CampaignInputs:
        workdir.mkdir(parents=True, exist_ok=True)
        return CampaignInputs(seed, Path(tempfile.mkdtemp(prefix="campaign-", dir=workdir)))

    def run_round(self, inputs: CampaignInputs, round_index: int, latencies: list[float]) -> list[Op]:
        gens = tuple(replace(g, seed=inputs.seed * 100_000 + round_index) for g in ACCEPTANCE_SPECS)
        out = inputs.tmp / f"round{round_index:05d}"
        cfg = campaign.CampaignConfig(
            trials=1, gens=gens, tol=CAMPAIGN_TOL, output_path=str(out), parallelism=1
        )
        # run_campaign times no single instance, so each instance of a round
        # is charged the round's mean
        result, error = _timed(lambda: campaign.run_campaign(cfg), latencies)
        latencies[-1] /= len(gens)
        failures = {} if result is None else result.invariant_failures
        rnd = CampaignRound(round_index, gens, out, failures)
        return [Op((rnd, gi), None, error) for gi in range(len(gens))]

    def check(self, inputs: CampaignInputs, ops: list[Op]):
        by_round: dict[Path, list[list[str]]] = {}

        def round_problems(rnd: CampaignRound) -> list[list[str]]:
            """Problems of each instance of one round, from the files it wrote."""
            count = len(rnd.gens)
            try:
                summary = json.loads((rnd.out / "summary.json").read_text())
                reports = json.loads((rnd.out / "reports.json").read_text())
            except (OSError, ValueError) as exc:
                return [[f"output files unreadable: {_describe(exc)}"]] * count
            ids = [r["instance_id"] for r in reports]
            if summary.get("instances") != count or len(set(ids)) != count:
                return [[f"reports.json holds {len(set(ids))} instances, expected {count}"]] * count
            found: list[list[str]] = [[] for _ in range(count)]
            rng = np.random.default_rng([inputs.seed, rnd.index])
            sample = set(rng.choice(count, size=self.REFERENCE_SAMPLE, replace=False).tolist())
            for rep in reports:
                gi = int(rep["instance_id"].split("-")[0][1:])
                problems = found[gi]
                problems += [f"program reports {k} violated" for k, ok in rep["holds"].items() if not ok]
                if not rep["refinement_ok"]:
                    problems.append("program reports refinement failure")
                problems += [f"invariant {name} failed" for name in rnd.invariant_failures.get(rep["instance_id"], [])]
                if gi not in sample:
                    continue
                bm = generators.gen_block_matrix(rnd.gens[gi], CAMPAIGN_TOL)
                ref = reference.reference(
                    np.array(bm.base_ctx.a), reference.flatten_blocks(np.array(bm.blocks)), bm.d
                )
                problems += reference.radius_problems(ref, rep["omega"], rep["bounds"])
            if summary["violations"] and not any(found):
                found = [[f"summary.json reports {summary['violations']} violations"]] * count
            return found

        def problems(op: Op) -> list[str]:
            rnd, gi = op.key
            if rnd.out not in by_round:
                by_round[rnd.out] = round_problems(rnd)
            return by_round[rnd.out][gi]

        return _statuses(ops, problems)

    def cleanup(self, inputs: CampaignInputs) -> None:
        shutil.rmtree(inputs.tmp, ignore_errors=True)


WORKLOADS = {
    "campaign-acceptance": CampaignAcceptance(),
    "operator-radii": OperatorRadii(),
    "blocks-large": BlocksLarge(),
}
