"""Run every benchmark workload and print one table of end-to-end metrics.

    python3 bench/all.py [--seed N] [--seconds S] [--trace 0|1]

Runs `bench/run.py` once per workload of `fixtures.WORKLOADS` (the two of
BENCHMARK.json and simulate_paper), from the root of a checkout, and
prints each workload's report followed by a summary of every metric by
name with its unit. Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from fixtures import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
THROUGHPUT = {"repdays_sweep": "hours_per_s", "simulate_paper": "sim_years_per_s",
              "calibrate_small": "evals_per_s"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    rows, failed = [], 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), end="\n\n")
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited {proc.returncode}", file=sys.stderr)
            failed += 1
            continue
        result = json.loads(lines[-1])
        failed += result["failed"]
        rows.append((workload, "error_rate", result["failed"] / result["attempted"],
                     f"{result['failed']}/{result['attempted']} runs"))
        for name, metric in result["metrics"].items():
            label = THROUGHPUT[workload] if name == "work_per_s" else name
            rows.append((workload, label, metric["value"], metric["unit"]))

    for workload, name, value, unit in rows:
        print(f"{workload:16s} {name:38s} {value:14.6g} {unit}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
