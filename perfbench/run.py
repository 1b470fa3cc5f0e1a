"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-acceptance --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: the program is imported from the
``src/`` directory beside this one, never from an installed copy, and the
run fails when there is none.  Everything runs serially in this process with
BLAS and OpenMP pinned to one thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the workload, seed, ``nproc`` and the Python and
numpy versions.  Traced runs also write their spans to
``.perfbench-run/spans-<workload>.csv``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# read once, when numpy loads its BLAS: must be set before the first import
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402  (binds numpy.linalg before any tracing)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-run"
SETUP_SAMPLES = 9  # this process plus eight fresh ones

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only import and generate the inputs, then print the seconds that took and the slowdown",
    )
    return parser.parse_args(argv)


@dataclass
class Measurement:
    """Ops and timings of one timed loop; ``scaled_*`` are at the reference speed."""

    ops: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds per op
    scaled_latencies: list = field(default_factory=list)
    kernel: list = field(default_factory=list)  # seconds per calibration pass
    rounds: int = 0
    busy: float = 0.0  # seconds spent inside rounds
    scaled_busy: float = 0.0

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.ops) / self.busy

    @property
    def ops_per_s(self) -> float:
        return len(self.ops) / self.scaled_busy


def measure(workload, inputs, kernel, seconds: float, first_round: int = 0) -> Measurement:
    """Run whole rounds until ``seconds`` have passed.

    The calibration kernel runs before the first round and after each
    round, and a round's times are divided by the slowdown of the two kernel
    runs around it: a slow spell that starts or ends inside a round shows in
    one of them.
    """
    m = Measurement()
    start = time.perf_counter()
    before = kernel()
    while True:
        first_op = len(m.latencies)
        t0 = time.perf_counter()
        m.ops += workload.run_round(inputs, first_round + m.rounds, m.latencies)
        busy = time.perf_counter() - t0
        after = kernel()
        slowdown = calibrate.slowdown(before + after)
        before = after
        m.kernel += after
        m.busy += busy
        m.scaled_busy += busy / slowdown
        m.scaled_latencies += [x / slowdown for x in m.latencies[first_op:]]
        m.rounds += 1
        if time.perf_counter() - start >= seconds:
            return m


def setup_probe(args) -> tuple[float, float]:
    """Set-up seconds of a fresh process (import plus input generation), and
    the slowdown the calibration kernel shows right after it in that process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    setup_s, slowdown = proc.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(slowdown)


def tally(statuses) -> tuple[int, bool]:
    """Failed ops, and whether every op that did not raise was correct."""
    bad = [s for s in statuses if s is not None]
    for kind, message in bad[:5]:
        print(f"perfbench: {kind}: {message}", file=sys.stderr)
    return len(bad), not any(kind == "wrong" for kind, _ in bad)


def percentiles_ms(seconds: list[float]) -> tuple[float, float]:
    """Median and 90th percentile, in ms."""
    ms = [1e3 * x for x in seconds]
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def end_to_end(args, workload, inputs, kernel, setup: tuple[float, float]):
    m = measure(workload, inputs, kernel, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, correct = tally(workload.check(inputs, m.ops))
    setups = [setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    p50, p90 = percentiles_ms(m.scaled_latencies)
    raw_p50, raw_p90 = percentiles_ms(m.latencies)
    metrics = {
        "setup_s": statistics.median(s / slowdown for s, slowdown in setups),
        "ops_per_s": m.ops_per_s,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "slowdown": calibrate.slowdown(m.kernel),
        "raw": {
            "ops_per_s": m.raw_ops_per_s,
            "latency_p50_ms": raw_p50,
            "latency_p90_ms": raw_p90,
        },
        "setup_samples": {"raw_s": [s for s, _ in setups], "slowdown": [x for _, x in setups]},
        "latency_samples": len(m.latencies),
        "rounds": m.rounds,
    }
    return len(m.ops), failed, correct, metrics, END_TO_END, notes


def traced(args, workload, inputs, kernel):
    import tracer

    base = measure(workload, inputs, kernel, args.seconds)
    with tracer.Tracer() as setup_trace:
        workload.cleanup(workload.setup(args.seed, WORKDIR))
    with tracer.Tracer() as loop_trace:
        m = measure(workload, inputs, kernel, args.seconds, first_round=base.rounds)
    failed, correct = tally(workload.check(inputs, base.ops + m.ops))
    metrics = tracer.layer_metrics(loop_trace, setup_trace, ops=len(m.ops), wall=m.busy)
    metrics["trace.overhead_ratio"] = m.ops_per_s / base.ops_per_s
    loop_trace.write_spans(WORKDIR / f"spans-{args.workload}.csv")
    notes = {"spans": len(loop_trace.spans), "rounds": [base.rounds, m.rounds]}
    return len(base.ops) + len(m.ops), failed, correct, metrics, tracer.PER_LAYER, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semihilbert" / "__init__.py").is_file():
        print(f"perfbench: no program source in {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, WORKDIR)
    setup_s = time.perf_counter() - _T0
    kernel = calibrate.Kernel()
    setup = (setup_s, calibrate.slowdown(kernel()))
    try:
        if args.setup_probe:
            print(*setup)
            return 0
        if args.trace:
            attempted, failed, correct, metrics, units, notes = traced(args, workload, inputs, kernel)
        else:
            attempted, failed, correct, metrics, units, notes = end_to_end(args, workload, inputs, kernel, setup)
    finally:
        workload.cleanup(inputs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "numpy": np.__version__,
        **notes,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
