"""Command-line front end.

Subcommands:
  compute   weighted seminorm, radii and adjoint of one operator
  verify    run a verification campaign from a config file, exit 1 on violation
  bounds    single-instance bound report for a block matrix file
  selftest  golden tightness witness plus equality-case ensembles

Every tolerance flag can also be supplied through an environment variable
with the ``SEMIHILBERT_`` prefix (flags win over the environment, which wins
over the config file).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .blockops import assemble
from .bounds import evaluate_all
from .campaign import CampaignConfig, run_campaign
from .config import DEFAULT_TOL, ToleranceConfig
from .core import Operator, a_adjoint, a_op_norm, in_ba, in_ba_half, make_context
from .generators import GenSpec, gen_compatible, gen_psd
from .radii import a_numerical_radius, a_spectral_radius
from .serialize import (
    block_matrix_from_json,
    matrix_from_json,
    matrix_to_json,
    report_to_dict,
    tolerance_from_json,
)

ENV_PREFIX = "SEMIHILBERT_"

_TOL_FLAGS = {f.name: type(f.default) for f in dataclasses.fields(ToleranceConfig)}


def _setting(flag_value, name: str, cast, fallback):
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is not None:
        return cast(raw)
    return fallback


def _add_tol_flags(parser: argparse.ArgumentParser) -> None:
    for name, cast in _TOL_FLAGS.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=cast, default=None)


def _resolve_tol(args, base: ToleranceConfig = DEFAULT_TOL) -> ToleranceConfig:
    fields = {
        name: _setting(getattr(args, name), name, cast, getattr(base, name))
        for name, cast in _TOL_FLAGS.items()
    }
    return ToleranceConfig(**fields)


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _cmd_compute(args) -> int:
    tol = _resolve_tol(args)
    ctx = make_context(matrix_from_json(_load_json(args.a)), tol)
    op = Operator(matrix_from_json(_load_json(args.t)), ctx)
    bounded = in_ba_half(op, tol)
    member = in_ba(op, tol)
    out = {
        "a_norm": a_op_norm(op, tol) if bounded else None,
        "omega_A": a_numerical_radius(op, tol) if bounded else None,
        "r_A": a_spectral_radius(op, tol) if bounded else None,
        "sharp": matrix_to_json(a_adjoint(op, tol).t) if member else None,
        "in_ba": member,
        "a_bounded": bounded,
    }
    print(json.dumps(out, indent=1))
    return 0


def _cmd_bounds(args) -> int:
    tol = _resolve_tol(args)
    bm = block_matrix_from_json(_load_json(args.blocks), tol)
    report = evaluate_all(bm, tol)
    print(json.dumps(report_to_dict(report, include_timing=True), indent=1))
    return 0 if report.all_hold and report.refinement_ok else 1


def _campaign_from_file(args) -> CampaignConfig:
    data = _load_json(args.config)
    tol = _resolve_tol(args, tolerance_from_json(data.get("tol")))
    seed = _setting(args.seed, "seed", int, None)
    gens = tuple(GenSpec(**(g if seed is None else dict(g, seed=seed))) for g in data["gens"])
    output = data.get("output", {})
    out_path = args.out if args.out is not None else output.get("path")
    out_format = _setting(args.format, "format", str, output.get("format", "json"))
    return CampaignConfig(
        trials=_setting(args.trials, "trials", int, data["trials"]),
        gens=gens,
        tol=tol,
        output_path=out_path,
        output_format=out_format,
        parallelism=_setting(args.parallelism, "parallelism", int, data.get("parallelism", 1)),
    )


def _cmd_verify(args) -> int:
    cfg = _campaign_from_file(args)
    result = run_campaign(cfg)
    print(json.dumps(result.summary, indent=1, sort_keys=True))
    return 1 if result.summary["violations"] else 0


def _cmd_selftest(args) -> int:
    tol = _resolve_tol(args)
    seed = _setting(args.seed, "seed", int, 0)
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    # golden tightness witness: lone identity in the top-right corner
    ctx = make_context(np.eye(2), tol)
    grid = np.zeros((2, 2, 2, 2), dtype=complex)
    grid[0, 1] = np.eye(2)
    bm = assemble(grid, ctx)
    report = evaluate_all(bm, tol, instance_id="tightness-witness")
    expected = {
        "B1_thf1": 0.5,
        "B2_r2": 0.75,
        "B3_th2": 0.5,
        "B4_diag_offdiag": 0.5,
        "B5_re_im": math.sqrt(2.0) / 2.0,
        "B6_maxdiag": 0.5,
        "B7_prior": 0.5,
    }
    check("tightness witness radius", abs(report.omega - 0.5) <= 1e-9)
    for key, val in expected.items():
        check(f"tightness witness {key}", abs(report.bounds[key] - val) <= 1e-9)

    # equality-case ensembles
    rng_seeds = range(seed, seed + 50)
    ok = True
    for s in rng_seeds:
        ctx = gen_psd(3, 2, s, tol)
        op = gen_compatible(ctx, s + 1, "nilpotent-lift")
        target = 0.5 * a_op_norm(op, tol)
        scale = 1.0 + target
        ok &= abs(a_numerical_radius(op, tol) - target) <= 1e-8 * scale
    check("vanishing-square ensemble: radius equals half seminorm", ok)

    ok = True
    for s in rng_seeds:
        ctx = gen_psd(3, 2, s, tol)
        op = gen_compatible(ctx, s + 1, "a-selfadjoint")
        vals = (
            a_op_norm(op, tol),
            a_numerical_radius(op, tol),
            a_spectral_radius(op, tol),
        )
        scale = 1.0 + max(vals)
        ok &= max(vals) - min(vals) <= 1e-8 * scale
    check("selfadjoint ensemble: seminorm, radius and spectral radius agree", ok)

    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} failing check(s)")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semihilbert",
        description="Weighted operator radii, block matrices and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="seminorm, radii and adjoint of one operator")
    p.add_argument("--a", required=True, help="weight matrix JSON file")
    p.add_argument("--t", required=True, help="operator matrix JSON file")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--config", required=True, help="campaign config JSON file")
    p.add_argument("--out", default=None, help="output directory for reports")
    p.add_argument("--format", default=None, choices=["json", "csv"])
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="single-instance bound report")
    p.add_argument("--blocks", required=True, help="block matrix JSON file")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("selftest", help="golden and equality-case suites")
    p.add_argument("--seed", type=int, default=None)
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())
