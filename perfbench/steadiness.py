"""Run-to-run spread of the end-to-end metrics, to set and check bounds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Runs ``run.py`` ``--runs`` times on each workload of BENCHMARK.json,
for its ``run_seconds``, alternating workloads, with seeds
``first-seed``, ``first-seed + 1``, ... Prints each run's
result line, then per workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median``, and each workload's failed share. Run from the root of a
checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = RUN.parent.parent / "BENCHMARK.json"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    if args.runs < 2:
        p.error("--runs must be >= 2 to have quartiles")
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in names:
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            print(f"{workload} seed {seed}: {line}", flush=True)
            results[workload].append(json.loads(line))

    print(f"\n{'workload':<13} {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:<13} {name:<30} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.2%}")
        failed = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{workload:<13} failed share {failed:.4f}, all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
