"""Run every workload and print each metric by name and unit.

    python3 perfbench/report.py                      # one run per workload
    python3 perfbench/report.py --runs 10 --sets 2   # steadiness report

Each run is ``run.py`` in its own process with a fresh ``--seed``.  For
every workload and metric the report prints the median, the quartiles
and the quartile spread as a share of the median of each set, next to
the metric's bound from ``BENCHMARK.json``; with two sets it also
prints how far the second median moved from the first.  Runs alternate
between workloads, so a slow spell on the host spreads over all of
them.  The exit code is 1 if any run failed or reported
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["exit"] = completed.returncode
    if completed.returncode != 0 or not result.get("correct"):
        sys.stderr.write(completed.stdout[-3000:] + completed.stderr[-3000:])
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return median, low, high, (high - low) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=1, help="runs per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = ([name for name in args.workloads.split(",") if name]
                 or [workload["name"] for workload in spec["workloads"]])
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    results: dict[str, list[list[dict]]] = {
        name: [[] for _ in range(args.sets)] for name in workloads
    }
    ok = True
    seed = args.seed
    for set_index in range(args.sets):
        for _ in range(args.runs):
            for name in workloads:
                result = run_once(name, seed, spec["run_seconds"], args.trace)
                seed += 1
                ok &= result["exit"] == 0 and bool(result.get("correct"))
                results[name][set_index].append(result)
                values = " ".join(f"{metric}={value['value']:.5g}"
                                  for metric, value in result["metrics"].items())
                print(f"[set {set_index + 1}] {name} seed {seed - 1}: exit "
                      f"{result['exit']}, correct {result.get('correct')} {values}",
                      file=sys.stderr, flush=True)

    for name in workloads:
        print(f"\n{name}")
        print(f"  {'metric':28s} {'unit':9s} set  {'median':>14s} {'q1':>14s} "
              f"{'q3':>14s} {'spread':>7s} {'bound':>6s}")
        for metric in metrics:
            medians = []
            for set_index, runs in enumerate(results[name]):
                values = [run["metrics"][metric["name"]]["value"]
                          for run in runs if metric["name"] in run["metrics"]]
                if not values:
                    continue
                median, low, high, share = spread(values)
                medians.append(median)
                bound = metric.get("bound")
                print(f"  {metric['name']:28s} {metric['unit']:9s} {set_index + 1:3d}  "
                      f"{median:14.4f} {low:14.4f} {high:14.4f} {share:7.3f} "
                      f"{bound if bound is not None else '':>6}")
            if len(medians) == 2 and medians[0]:
                drift = medians[1] / medians[0] - 1
                print(f"  {'':28s} {'':9s} second median vs first: {drift:+.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
