"""Re-derive the reference figures: run every workload on several seeds and
print each metric's median and spread (quartile distance over median).

    python3 perfbench/figures.py --seeds 101-110 --seconds 25 [--trace 1]

Runs are sequential, one process at a time, from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="101-110", help="first-last, inclusive")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        counts = []
        for seed in range(first, last + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            counts.append((result["attempted"], result["failed"], result["correct"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: (attempted, failed, correct) per seed {counts}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:36s} {med:12.5g} {units[name]:15s} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
