"""Measure how much each workload slows down when the host does.

    python3 perfbench/sensitivity.py --workloads thrash,resident --seconds 150

Runs each workload's timed phase for ``--seconds`` with the host-speed
sampler on and fits, by least squares, the log of each operation's own
CPU time against the log of the mean calibration-loop time during it
(one intercept per case; on ``serve`` one point per window of traffic,
per request).  The slope is the workload's ``host_sensitivity``: 1.0
when it slows down exactly as much as the loop.  Run it on a host that
switches between fast and slow spells, or the slope is not defined;
the printed correlation says how well the loop explains the spread.
"""

from __future__ import annotations

import argparse
import math
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def slope(points: list[tuple[str, float, float]]) -> tuple[float, float]:
    """Slope and correlation of ``y`` over ``x``, each case centred."""
    by_case: dict[str, list[tuple[float, float]]] = {}
    for case, x, y in points:
        by_case.setdefault(case, []).append((x, y))
    xs, ys = [], []
    for pairs in by_case.values():
        mean_x = statistics.fmean(x for x, _ in pairs)
        mean_y = statistics.fmean(y for _, y in pairs)
        xs += [x - mean_x for x, _ in pairs]
        ys += [y - mean_y for _, y in pairs]
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    if not sxx or not syy:
        return float("nan"), float("nan")
    return sxy / sxx, sxy / math.sqrt(sxx * syy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="thrash,resident,sweep,serve")
    parser.add_argument("--seconds", type=float, default=150.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from calibrate import Sampler
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / "sensitivity"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workloads.split(","):
            workload = WORKLOADS[name](args.seed, False, workdir)
            workload.generate()
            workload.setup()
            with Sampler() as sampler:
                phase = workload.run_phase(args.seconds, None, sampler)

            def point(case, section, count=1):
                loop = sampler.loop_s(section.began, section.ended)
                return case, math.log(loop), math.log(section.own_s / count)

            if phase.windows:
                points = [point("window", section, requests)
                          for requests, _, section in phase.windows if requests]
            else:
                points = [point(label, section) for label, _, section in phase.timings]
            fitted, correlation = slope(points)
            print(f"{name:10s} {len(points):5d} points  slope {fitted:5.2f}  "
                  f"correlation {correlation:5.3f}  (host_sensitivity "
                  f"{WORKLOADS[name].host_sensitivity})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
