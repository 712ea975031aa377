"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload thrash --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The run generates its inputs, sets up several times, runs
one timed phase of about ``--seconds`` with tracing off, and, with
``--trace 1``, a second phase with spans recorded around every public
layer call.  It then checks the outputs (see ``workloads.py``), prints
a readable report and, as the last line, one JSON object::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

``metrics`` holds the ``end_to_end`` metrics of ``BENCHMARK.json``
(``--trace 0``) or its ``per_layer`` metrics (``--trace 1``).  Times
are taken on the main thread's CPU clock (see ``workloads.clock``); the
end-to-end metrics scale them to the reference host's speed, sampled
while the program runs (see ``calibrate.py``).  The report also prints
the unscaled and wall-clock rates and the host's steal.  The exit code
is 1 when a correctness check fails and 2 when the run cannot start
(no program to import, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from calibrate import REFERENCE_S, Sampler, Section  # noqa: E402

#: Set-ups per run.  ``setup_s`` is imports plus input generation (done
#: once) plus the median set-up (warm-up runs, store pre-warm).
SETUP_REPEATS = 5
#: Server-side layers of the serve workload; the rest of its timed
#: phase is the event loop's HTTP work on both ends (``serve.http``).
SERVER_LAYERS = ("serve.parse", "serve.submit", "api.plan", "api.cache_get",
                 "api.encode", "workloads.trace")
#: Span names that mark operations rather than a layer of the program.
OPERATION_SPANS = ("bench.op", "bench.request")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests)")
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def end_to_end(workload, phase, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    return {**workload.summarize(phase), "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}


def per_layer(workload, phase, recorder, names) -> dict[str, float]:
    """Every per-layer metric, as a mean per operation of the phase."""
    ops = max(1, phase.attempted)
    values = {name: 0.0 for name in names}
    self_s = recorder.self_seconds()
    for span_name, seconds in self_s.items():
        if f"{span_name}_s" in values:
            values[f"{span_name}_s"] = seconds / ops
    layers = {name: seconds for name, seconds in self_s.items()
              if name not in OPERATION_SPANS}
    if workload.name == "serve":
        server = sum(layers.get(name, 0.0) for name in SERVER_LAYERS)
        layers["serve.http"] = phase.cpu_s - server
        values["serve.http_s"] = layers["serve.http"] / ops
    attributed = sum(layers.values())
    values["unattributed_s"] = (phase.cpu_s - attributed) / ops
    values["layers.coverage"] = attributed / phase.cpu_s
    for _, result in phase.results:
        values["sim.refs"] += result.stats.total_instructions / ops
        for event, count in result.stats.events.items():
            key = f"sim.ev.{event}"
            if key not in values:
                print(f"warning: event {event} is not a per-layer metric",
                      file=sys.stderr)
                continue
            values[key] += count / ops
    values["api.restored"] = recorder.count("sim.resume", parent="api.checkpoint_scan") / ops
    values["api.cold"] = recorder.count("sim.run", parent="api.checkpoint_scan") / ops
    values["snapshot.bytes"] = recorder.arg_total("api.checkpoint_save", "bytes") / ops
    if workload.name == "serve":
        stats = phase.extras["stats"]
        for counter in ("memo_hits", "disk_hits", "executed", "coalesced"):
            values[f"serve.{counter}"] = stats[counter] / ops
        values["serve.response_bytes"] = workload.response_bytes(phase)
    values["fail_ratio"] = phase.failed / max(1, phase.attempted)
    values["host.wall_s"] = phase.wall_s / ops
    values["host.steal_s"] = phase.steal_s / ops
    return values


def print_layers(phase, recorder) -> None:
    print(f"traced phase: {phase.cpu_s:.3f} CPU s, {phase.attempted} operations, "
          f"{len(recorder.spans)} spans; self time per layer:")
    for name, seconds in sorted(recorder.self_seconds().items(),
                                key=lambda item: -item[1]):
        print(f"  {name:24s} {seconds:10.4f} s  {100 * seconds / phase.cpu_s:6.2f} %")


def main(argv=None) -> int:
    args = parse_args(argv)
    with Sampler() as sampler:
        return measure(args, sampler)


def measure(args, sampler: Sampler) -> int:
    began_wall = time.perf_counter()
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import repro  # noqa: F401 -- the program under test
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    from spans import Recorder
    from workloads import WORKLOADS, require_identical

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        # the CPU clock starts with the process, so this covers start-up
        # and imports
        start_up = sampler.scaled(Section(own_s=time.process_time() - sampler.total,
                                          began=began_wall, ended=time.perf_counter()))
        started = sampler.start()
        workload.generate()
        generate = sampler.scaled(sampler.stop(started))
        setups = []
        for _ in range(SETUP_REPEATS):
            started = sampler.start()
            workload.setup()
            setups.append(sampler.scaled(sampler.stop(started)))
            gc.collect()
        setup_s = start_up + generate + statistics.median(setups)
        print(f"set-up: start-up and imports {start_up:.4f} s, input generation "
              f"{generate:.4f} s, set-ups {' '.join(f'{s:.4f}' for s in setups)} s")

        phase = workload.run_phase(args.seconds, None, sampler)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = recorder = None
        if args.trace:
            recorder = Recorder()
            with recorder:
                traced = workload.run_phase(args.seconds, recorder, sampler)

        checks = workload.check(phase) + workload.gate(phase)
        if traced is not None:
            checks += workload.check(traced)
            for (label, plain), (_, result) in zip(phase.results, traced.results):
                require_identical(checks, f"{label}: traced == untraced", plain, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_checks = [check for check in checks if not check[1]]
    print(f"workload {args.workload}, seed {args.seed}: {phase.attempted} "
          f"operations in {phase.rounds} round(s), {phase.cpu_s:.3f} CPU s timed "
          f"({phase.wall_s:.3f} s wall, {phase.steal_s:.2f} s stolen by the host, "
          f"{phase.other_threads_s:.2f} CPU s in other threads)")
    print(f"checks: {len(checks) - len(failed_checks)} passed, "
          f"{len(failed_checks)} failed")
    for name, _, detail in failed_checks:
        print(f"  FAILED {name}: {detail}")
    print(f"fail_ratio {phase.failed / max(1, phase.attempted):.6f} "
          f"({phase.failed} of {phase.attempted})")
    e2e = end_to_end(workload, phase, setup_s, peak_rss_mb)
    print(f"unscaled CPU clock: {phase.refs / phase.cpu_s:.4f} refs/s, "
          f"{len(phase.latencies) / phase.cpu_s:.4f} req/s; wall clock: "
          f"{phase.refs / phase.wall_s:.4f} refs/s, "
          f"{len(phase.latencies) / phase.wall_s:.4f} req/s")
    print(f"host speed: {len(sampler.took)} samples, mean loop "
          f"{statistics.fmean(sampler.took) * 1e6 if sampler.took else 0:.1f} us "
          f"(reference {REFERENCE_S * 1e6:.1f} us)")
    print(f"latencies over {len(phase.latencies)} operations"
          + (f" of {len({label for label, _, _ in phase.timings})} cases"
             if workload.name != "serve" else ""))
    for metric in spec["end_to_end"]:
        print(f"{metric['name']:16s} {e2e[metric['name']]:14.4f} {metric['unit']}")

    if traced is None:
        metrics = {metric["name"]: {"value": e2e[metric["name"]], "unit": metric["unit"]}
                   for metric in spec["end_to_end"]}
        attempted, failed = phase.attempted, phase.failed
    else:
        print_layers(traced, recorder)
        traced_e2e = end_to_end(workload, traced, setup_s, peak_rss_mb)
        for name in ("refs_per_s", "requests_per_s"):
            print(f"tracing overhead on {name}: untraced {e2e[name]:.4f}, traced "
                  f"{traced_e2e[name]:.4f} ({100 * (1 - traced_e2e[name] / e2e[name]):+.2f} %)")
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(str(trace_path))
        print(f"trace: {trace_path.relative_to(ROOT)} "
              f"(python -m repro trace summary {trace_path.relative_to(ROOT)})")
        names = [metric["name"] for metric in spec["per_layer"]]
        values = per_layer(workload, traced, recorder, names)
        metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                   for metric in spec["per_layer"]}
        attempted = phase.attempted + traced.attempted
        failed = phase.failed + traced.failed
    print(json.dumps({
        "correct": not failed_checks and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failed_checks and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
