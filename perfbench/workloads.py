"""The four benchmark workloads and their correctness checks.

Each workload stresses one layer and bypasses the others:

* ``thrash``   -- cold runs in the paper's remap-heavy regime; the
  engine's slow path (2-D walks, translation coherence) dominates.
* ``resident`` -- a TLB/L1-resident steady scenario; the slow path
  sits idle and per-reference fast-path cost dominates.
* ``sweep``    -- a checkpointed ``refs_total`` sweep through
  ``Session(checkpoints=True)``; snapshot capture, save, load and
  restore dominate.
* ``serve``    -- two closed-loop HTTP clients against an in-process
  server over a pre-warmed store; no simulation runs, so HTTP,
  admission, planning and result encoding dominate.

Only public API is used: ``RunRequest``, ``SystemConfig``,
``execute_request``, ``Session``, ``ResultCache``, ``encode_result`` /
``decode_result``, ``result_fingerprint`` and the serve trio
``SimulationService`` / ``ReproServer`` / ``ServiceClient``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from repro.api import (
    ResultCache,
    RunRequest,
    Session,
    decode_result,
    encode_result,
    execute_request,
)
from repro.serve import ReproServer, ServiceClient, ServiceSettings, SimulationService
from repro.sim.config import SystemConfig
from repro.sim.engine import diff_fingerprints, result_fingerprint
from repro.workloads.synthetic import FAMILY_PRESETS, scenario_spec

from calibrate import Sampler, Section
from spans import Recorder

PROTOCOLS = ("software", "hatric")

#: The clock every timing uses: the main thread's CPU time.  Every
#: workload runs in the main thread of one CPU-bound process, so on an
#: unshared host its CPU time is its wall time; on a shared virtual
#: machine the CPU clock leaves out the time the hypervisor gives this
#: vCPU to other guests (steal), which the wall clock does not.  (The
#: process clock would count other threads too, but while a profiling
#: timer is armed it only advances at scheduler ticks.)  The end-to-end
#: metrics further scale each operation's CPU time to the reference
#: host's speed (see ``calibrate.py``).
clock = time.thread_time
#: Wall seconds of one window of serve traffic; each window's request
#: rate is one sample of ``requests_per_s``.
SERVE_WINDOW_S = 1.0


def percentile(samples: list[float], index: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[index]


def host_steal_s() -> float:
    """Seconds the hypervisor has stolen from this machine's vCPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as stream:
            fields = stream.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


@dataclass
class Phase:
    """What one timed phase did."""

    #: samples the host's speed during the phase.
    sampler: Sampler = field(default_factory=Sampler)
    #: CPU and wall seconds of the timed sections (see :data:`clock`).
    cpu_s: float = 0.0
    wall_s: float = 0.0
    #: seconds the host stole from this machine during the whole phase.
    steal_s: float = 0.0
    #: CPU seconds of the process's other threads during the whole phase.
    other_threads_s: float = 0.0
    #: simulated references requested by the operations that completed.
    refs: int = 0
    #: CPU seconds of every completed operation.
    latencies: list[float] = field(default_factory=list)
    #: ``(case label, refs, section)`` of every completed operation.
    timings: list[tuple[str, int, Section]] = field(default_factory=list)
    #: serve: ``(requests, refs, section)`` of every window of traffic.
    windows: list[tuple[int, int, Section]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    #: ``(case label, result)`` of every completed simulation operation.
    results: list[tuple[str, Any]] = field(default_factory=list)
    #: per-workload extras (serve: ``/stats`` deltas, response sizes).
    extras: dict[str, Any] = field(default_factory=dict)
    began: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def begin(self) -> None:
        self.began = (time.perf_counter(), host_steal_s(), time.process_time(),
                      time.thread_time())

    def since_begin(self) -> float:
        """Wall seconds since :meth:`begin`, timed or not."""
        return time.perf_counter() - self.began[0]

    def end(self) -> None:
        self.steal_s = host_steal_s() - self.began[1]
        self.other_threads_s = ((time.process_time() - self.began[2])
                                - (time.thread_time() - self.began[3]))

    def add(self, cpu: float, wall: float) -> float:
        """Count the section that started at ``(cpu, wall)`` as timed;
        return its CPU seconds."""
        elapsed = clock() - cpu
        self.cpu_s += elapsed
        self.wall_s += time.perf_counter() - wall
        return elapsed


def config(num_cpus: int, protocol: str, seed: int) -> SystemConfig:
    return SystemConfig(num_cpus=num_cpus, protocol=protocol, seed=seed)


def require(checks: list[tuple[str, bool, str]], name: str, ok: bool, detail: str) -> None:
    checks.append((name, bool(ok), detail))


def require_identical(checks, name: str, expected: Any, actual: Any) -> None:
    """Compare two results (or fingerprints) field by field."""
    if not isinstance(expected, dict):
        expected = result_fingerprint(expected)
    if not isinstance(actual, dict):
        actual = result_fingerprint(actual)
    differences = diff_fingerprints(expected, actual)
    require(checks, name, not differences,
            "identical" if not differences else "; ".join(differences[:3]))


def gate_engines_and_tracing(checks, label: str, request: RunRequest) -> None:
    """Default engine vs reference engine vs default engine traced."""
    plain = execute_request(request)
    reference = execute_request(
        RunRequest.from_dict({**request.to_dict(), "engine": "reference"})
    )
    require_identical(checks, f"{label}: reference engine == default engine",
                      reference, plain)
    with Recorder():
        traced = execute_request(request)
    require_identical(checks, f"{label}: traced == untraced", plain, traced)


def traced_operation(recorder: Optional[Recorder], op: int):
    return recorder.operation(op) if recorder is not None else nullcontext()


def traced_span(recorder: Optional[Recorder], name: str, **args: Any):
    return recorder.span(name, **args) if recorder is not None else nullcontext()


def run_rounds(
    make_round: Callable[[], list[tuple[str, int, Callable[[], Any]]]],
    seconds: float,
    recorder: Optional[Recorder],
    sampler: Sampler,
) -> Phase:
    """Run whole rounds of operations for about ``seconds`` wall seconds.

    Every round runs the same cases, so the mix never depends on where
    the clock ran out: rounds continue while the next round's end is
    expected to land nearer ``seconds`` than the current one.  The
    garbage each run leaves is collected right after it, outside the
    timed sections, so memory stays flat and no run pays for the one
    before it.
    """
    phase = Phase(sampler=sampler)
    phase.begin()
    while True:
        cpu, wall = clock(), time.perf_counter()
        operations = make_round()
        phase.add(cpu, wall)
        for label, refs, call in operations:
            phase.attempted += 1
            result = None
            with traced_operation(recorder, phase.attempted - 1), \
                    traced_span(recorder, "bench.op", case=label):
                cpu, wall = clock(), time.perf_counter()
                started = sampler.start()
                try:
                    result = call()
                except Exception:  # noqa: BLE001 -- counted and reported
                    phase.failed += 1
                    traceback.print_exc(file=sys.stderr)
                section = sampler.stop(started)
                seconds_taken = phase.add(cpu, wall)
            gc.collect()
            if result is not None:
                phase.latencies.append(seconds_taken)
                phase.timings.append((label, refs, section))
                phase.refs += refs
                phase.results.append((label, result))
        phase.rounds += 1
        elapsed = phase.since_begin()
        if elapsed + elapsed / phase.rounds / 2 >= seconds:
            break
    phase.end()
    return phase


def by_round(phase: Phase, per_round: int) -> list[dict[str, Any]]:
    """The phase's results regrouped as one ``{label: result}`` per round."""
    rounds = []
    for index in range(0, len(phase.results) - per_round + 1, per_round):
        rounds.append(dict(phase.results[index:index + per_round]))
    return rounds


def check_rounds_repeat(checks, phase: Phase, per_round: int) -> None:
    rounds = by_round(phase, per_round)
    require(checks, "every operation of every round completed",
            phase.failed == 0 and len(rounds) == phase.rounds,
            f"{phase.failed} failed of {phase.attempted}")
    for later in rounds[1:]:
        for label, result in later.items():
            require_identical(checks, f"{label}: round repeats round 1",
                              rounds[0][label], result)


class Rounds:
    """A simulation workload: whole rounds of fixed cases.

    Subclasses set ``self.cases`` (``(label, RunRequest)`` pairs) in
    :meth:`generate` and name in :meth:`gate_requests` the short requests
    that check engines and tracing on the workload's shape.
    """

    name = ""
    num_cpus = 16
    #: how much more than the calibration loop the workload slows down
    #: when the host does (see ``calibrate.Sampler.scaled``)
    host_sensitivity = 1.0

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.cases: list[tuple[str, RunRequest]] = []

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Short runs of the workload's shape: first-call imports and
        allocator growth happen here, not in the timed phase."""
        for _, request in self.gate_requests():
            execute_request(request)

    def make_round(self) -> list[tuple[str, int, Callable[[], Any]]]:
        return [
            (label, request.refs_total, lambda r=request: execute_request(r))
            for label, request in self.cases
        ]

    def run_phase(self, seconds: float, recorder: Optional[Recorder],
                  sampler: Sampler) -> Phase:
        return run_rounds(self.make_round, seconds, recorder, sampler)

    def summarize(self, phase: Phase) -> dict[str, float]:
        """Rates and latencies of one round on the reference host.

        The simulation is deterministic, so repeats of a case differ
        only by the host; each case's latency is the median of its
        scaled repeats, and a round takes the sum of those.
        """
        repeats: dict[str, tuple[int, list[float]]] = {}
        for label, refs, section in phase.timings:
            repeats.setdefault(label, (refs, []))[1].append(
                phase.sampler.scaled(section, self.host_sensitivity))
        latency = {label: statistics.median(times)
                   for label, (_, times) in repeats.items()}
        round_s = sum(latency.values())
        if not round_s:  # no operation completed; the checks report it
            return {"refs_per_s": 0.0, "requests_per_s": 0.0,
                    "p50_ms": 0.0, "p99_ms": 0.0}
        ms = [seconds * 1000.0 for seconds in latency.values()]
        return {
            "refs_per_s": sum(refs for refs, _ in repeats.values()) / round_s,
            "requests_per_s": len(latency) / round_s,
            "p50_ms": percentile(ms, 49),
            "p99_ms": percentile(ms, 98),
        }

    def check(self, phase: Phase) -> list[tuple[str, bool, str]]:
        """Checks on one phase's own results."""
        checks: list[tuple[str, bool, str]] = []
        check_rounds_repeat(checks, phase, len(self.cases))
        return checks

    def gate_requests(self) -> list[tuple[str, RunRequest]]:
        raise NotImplementedError

    def gate(self, phase: Phase) -> list[tuple[str, bool, str]]:
        """Checks that need extra runs: engines and tracing agree."""
        checks: list[tuple[str, bool, str]] = []
        for label, request in self.gate_requests():
            gate_engines_and_tracing(checks, label, request)
        return checks


class Thrash(Rounds):
    """Cold 16-vCPU runs of ``data_caching`` and ``syn:migration-daemon``
    under ``software`` and ``hatric``: the remap-heavy slow path."""

    name = "thrash"

    def generate(self) -> None:
        # data_caching needs about 60k refs before its footprint outgrows
        # die-stacked memory and remaps begin; 40k migration-daemon refs
        # take about as long, so every run of a round lasts about the same
        # and the latency percentiles do not sit between two clusters
        refs = (3_000, 3_000) if self.tiny else (60_000, 40_000)
        self.cases = [
            (f"{workload}/{protocol}", RunRequest(
                config=config(self.num_cpus, protocol, self.seed),
                workload=workload, refs_total=workload_refs,
            ))
            for workload, workload_refs in zip(
                ("data_caching", f"syn:migration-daemon/seed={self.seed}"), refs
            )
            for protocol in PROTOCOLS
        ]

    def check(self, phase: Phase) -> list[tuple[str, bool, str]]:
        checks = super().check(phase)
        rounds = by_round(phase, len(self.cases))
        if not rounds:
            return checks
        first = rounds[0]
        for workload in sorted({label.rsplit("/", 1)[0] for label in first}):
            software = first[f"{workload}/software"]
            hatric = first[f"{workload}/hatric"]
            require(checks, f"{workload}: hatric runtime <= software",
                    hatric.runtime_cycles <= software.runtime_cycles,
                    f"{hatric.runtime_cycles} vs {software.runtime_cycles}")
            require(checks, f"{workload}: retired refs equal",
                    hatric.stats.total_instructions
                    == software.stats.total_instructions,
                    f"{hatric.stats.total_instructions} vs "
                    f"{software.stats.total_instructions}")
        return checks

    def gate_requests(self) -> list[tuple[str, RunRequest]]:
        return [
            (f"{label}@2000", RunRequest(config=request.config,
                                         workload=request.workload,
                                         refs_total=2_000))
            for label, request in self.cases[1::2]
        ]


class Resident(Rounds):
    """A long TLB/L1-resident steady scenario at 16 vCPUs: the fast path
    retires nearly every reference and the slow path sits idle."""

    name = "resident"
    # its fast path slows down more than the loop on a busy host
    host_sensitivity = 1.3

    def generate(self) -> None:
        workload = scenario_spec(
            "steady", seed=self.seed, footprint_pages=6, hot_fraction=1.0,
            cold_probability=0.0, page_reuse=16,
        ).name
        refs = 20_000 if self.tiny else 400_000
        self.cases = [
            (f"{workload}/{protocol}", RunRequest(
                config=config(self.num_cpus, protocol, self.seed),
                workload=workload, refs_total=refs,
            ))
            for protocol in PROTOCOLS
        ]

    def gate_requests(self) -> list[tuple[str, RunRequest]]:
        label, request = self.cases[-1]
        return [(f"{label}@20000", RunRequest(config=request.config,
                                              workload=request.workload,
                                              refs_total=20_000))]


class Sweep(Rounds):
    """A checkpointed ``refs_total`` sweep over one prefix-stable trace,
    8 vCPUs, ``software`` and ``hatric``: every point after the first
    restores the previous point's checkpoint and simulates the tail.
    Each round starts from an empty store."""

    name = "sweep"
    num_cpus = 8

    def requests(self, points, warmup_refs: int) -> list[tuple[str, RunRequest]]:
        workload = f"prefix:{points[-1]}:syn:migration-daemon/seed={self.seed}"
        return [
            (f"{protocol}@{refs}", RunRequest(
                config=config(self.num_cpus, protocol, self.seed),
                workload=workload, refs_total=refs, warmup_refs=warmup_refs,
            ))
            for protocol in PROTOCOLS
            for refs in points
        ]

    def generate(self) -> None:
        # the cold first point takes about as long as each restored tail
        points = (2_000, 4_000) if self.tiny else (18_000, 30_000, 42_000)
        self.cases = self.requests(points, warmup_refs=200 if self.tiny else 1_000)
        self.rounds_started = 0

    def setup(self) -> None:
        """A two-point checkpointed sweep: the checkpoint path's first
        save, load and restore happen here, not in the timed phase."""
        warmup = Session(cache_dir=self.workdir / "sweep-warmup", checkpoints=True)
        for _, request in self.requests((1_000, 2_000), warmup_refs=100)[:2]:
            warmup.run(request)
        shutil.rmtree(self.workdir / "sweep-warmup")

    def make_round(self):
        self.rounds_started += 1
        session = Session(
            cache_dir=self.workdir / f"sweep-round-{self.rounds_started}",
            checkpoints=True,
        )
        return [
            (label, request.refs_total, lambda r=request: session.run(r))
            for label, request in self.cases
        ]

    def run_phase(self, seconds: float, recorder: Optional[Recorder],
                  sampler: Sampler) -> Phase:
        try:
            return super().run_phase(seconds, recorder, sampler)
        finally:
            for directory in self.workdir.glob("sweep-round-*"):
                shutil.rmtree(directory)

    def gate(self, phase: Phase) -> list[tuple[str, bool, str]]:
        checks = super().gate(phase)
        rounds = by_round(phase, len(self.cases))
        for label, request in self.cases if rounds else []:
            require_identical(checks, f"{label}: checkpointed == cold execute_request",
                              execute_request(request), rounds[0][label])
        return checks

    def gate_requests(self) -> list[tuple[str, RunRequest]]:
        label, request = self.cases[1]
        return [(f"{label}@4000", RunRequest(
            config=request.config, workload=request.workload,
            refs_total=4_000, warmup_refs=request.warmup_refs,
        ))]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class Serve:
    """Two closed-loop clients against an in-process server (no worker
    pool) over a pre-warmed store: 10 scenario names x 3 protocols at 4
    vCPUs, drawn with zipf skew.  Nothing is simulated while timed."""

    name = "serve"
    num_cpus = 4
    host_sensitivity = 1.1
    clients = 2
    zipf_s = 1.1
    protocols = ("software", "hatric", "ideal")

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.setups = 0

    def pool(self) -> list[RunRequest]:
        families = list(FAMILY_PRESETS)
        names = [
            scenario_spec(families[index % len(families)], seed=self.seed + index).name
            for index in range(8)
        ]
        half = self.num_cpus // 2
        names.append(f"multi:{names[0]}@{half}+{names[1]}@{half}")
        names.append(f"multi:{names[0]}@{half}+{names[0]}@{half}+share=shared")
        refs = 1_000 if self.tiny else 4_000
        return [
            RunRequest(config=config(self.num_cpus, protocol, self.seed),
                       workload=name, refs_total=refs)
            for name in names
            for protocol in self.protocols
        ]

    def generate(self) -> None:
        """The request pool and, simulated once, the result of each."""
        self.requests = self.pool()
        self.results = [execute_request(request) for request in self.requests]
        self.fingerprints = [result_fingerprint(result) for result in self.results]
        # what a client sees after the JSON round trip
        self.expected = [json.loads(json.dumps(encode_result(result)))
                         for result in self.results]
        self.payloads = [{"request": request.to_dict()} for request in self.requests]
        weights = 1.0 / np.power(np.arange(1, len(self.requests) + 1), self.zipf_s)
        self.probabilities = weights / weights.sum()

    def setup(self) -> None:
        """Pre-warm a fresh result store with every result."""
        self.setups += 1
        self.store = self.workdir / f"serve-store-{self.setups}"
        cache = ResultCache(self.store)
        for request, result in zip(self.requests, self.results):
            cache.put(request.cache_key, result)

    def run_phase(self, seconds: float, recorder: Optional[Recorder],
                  sampler: Sampler) -> Phase:
        return asyncio.run(self._phase(seconds, recorder, sampler))

    async def _phase(self, seconds: float, recorder: Optional[Recorder],
                     sampler: Sampler) -> Phase:
        service = SimulationService(ServiceSettings(cache_dir=self.store, workers=0))
        server = ReproServer(service)
        host, port = await server.start()
        client = ServiceClient(host, port)
        phase = Phase(sampler=sampler)
        picks: list[int] = []
        mismatched: list[int] = []
        rngs = [np.random.default_rng([self.seed, index]) for index in range(self.clients)]
        try:
            _, before = await client.get("/stats")
            phase.begin()
            end = time.perf_counter() + seconds

            async def closed_loop(rng, deadline: float) -> None:
                while time.perf_counter() < deadline:
                    pick = int(rng.choice(len(self.requests), p=self.probabilities))
                    phase.attempted += 1
                    with traced_operation(recorder, phase.attempted - 1):
                        with traced_span(recorder, "bench.request", key=pick):
                            began = clock()
                            started = sampler.start()
                            try:
                                status, body = await client.post("/run", self.payloads[pick])
                            except Exception:  # noqa: BLE001 -- counted and reported
                                status, body = 0, None
                                traceback.print_exc(file=sys.stderr)
                            section = sampler.stop(started)
                            elapsed = clock() - began
                    if status != 200 or not body or not body.get("ok"):
                        phase.failed += 1
                        continue
                    phase.latencies.append(elapsed)
                    phase.timings.append((str(pick), self.requests[pick].refs_total,
                                          section))
                    phase.refs += self.requests[pick].refs_total
                    picks.append(pick)
                    if body["result"] != self.expected[pick]:
                        mismatched.append(pick)

            # whole windows of traffic, both clients in each
            while not phase.windows or time.perf_counter() < end:
                deadline = min(end, time.perf_counter() + SERVE_WINDOW_S)
                requests, refs = len(phase.latencies), phase.refs
                cpu, wall = clock(), time.perf_counter()
                started = sampler.start()
                await asyncio.gather(*[closed_loop(rng, deadline) for rng in rngs])
                section = sampler.stop(started)
                phase.add(cpu, wall)
                phase.windows.append((len(phase.latencies) - requests,
                                      phase.refs - refs, section))
            phase.end()
            _, after = await client.get("/stats")
            phase.extras["stats"] = {
                name: after[name] - before[name]
                for name in ("requests", "memo_hits", "disk_hits", "coalesced",
                             "executed", "errors")
            }
            phase.extras["picks"] = picks
            phase.extras["mismatched"] = mismatched
            phase.extras["served"] = await self._served_once(client)
        finally:
            await server.stop()
        phase.rounds = 1
        return phase

    def summarize(self, phase: Phase) -> dict[str, float]:
        """Rates over windows of traffic and latencies over requests, on
        the reference host.  A rate is the median of the windows' rates,
        so one window the host slowed down more than the samples show
        cannot move it."""
        sensitivity = self.host_sensitivity
        scaled = [(requests, refs, phase.sampler.scaled(section, sensitivity))
                  for requests, refs, section in phase.windows if requests]
        ms = [phase.sampler.scaled(section, sensitivity) * 1000.0
              for _, _, section in phase.timings]
        return {
            "refs_per_s": statistics.median(refs / s for _, refs, s in scaled)
            if scaled else 0.0,
            "requests_per_s": statistics.median(n / s for n, _, s in scaled)
            if scaled else 0.0,
            "p50_ms": percentile(ms, 49),
            "p99_ms": percentile(ms, 98),
        }

    async def _served_once(self, client: ServiceClient) -> list[tuple[int, Any]]:
        """Every key served once more, outside the timed phase."""
        served = []
        for payload in self.payloads:
            status, body = await client.post("/run", payload)
            served.append((status, body))
        return served

    def response_bytes(self, phase: Phase) -> float:
        """Mean response body size of the timed phase's requests."""
        sizes = [
            len(json.dumps(body).encode("utf-8")) if body else 0
            for _, body in phase.extras["served"]
        ]
        picks = phase.extras["picks"]
        return sum(sizes[pick] for pick in picks) / max(1, len(picks))

    def check(self, phase: Phase) -> list[tuple[str, bool, str]]:
        checks: list[tuple[str, bool, str]] = []
        stats = phase.extras["stats"]
        sources = (stats["memo_hits"] + stats["disk_hits"] + stats["coalesced"]
                   + stats["executed"])
        require(checks, "conservation: requests == memo + disk + coalesced + executed",
                stats["requests"] == sources
                and stats["requests"] == phase.attempted - phase.failed,
                f"{stats['requests']} == {sources} (client-side "
                f"{phase.attempted - phase.failed})")
        require(checks, "warm store: executed == 0",
                stats["executed"] == 0 and stats["errors"] == 0,
                f"executed {stats['executed']}, errors {stats['errors']}")
        require(checks, "no failed request", phase.failed == 0,
                f"{phase.failed} of {phase.attempted}")
        require(checks, "every served result == the stored result",
                not phase.extras["mismatched"],
                f"{len(phase.extras['mismatched'])} mismatched responses")
        return checks

    def gate(self, phase: Phase) -> list[tuple[str, bool, str]]:
        checks: list[tuple[str, bool, str]] = []
        for index, (status, body) in enumerate(phase.extras["served"]):
            if status != 200 or not body:
                require(checks, f"key {index}: served", False, f"status {status}")
                continue
            require_identical(checks, f"key {index}: served fingerprint == stored",
                              self.fingerprints[index], decode_result(body["result"]))
        gate_engines_and_tracing(checks, "pool[0]", self.requests[0])
        return checks


#: Every workload, by name.
WORKLOADS = {workload.name: workload for workload in (Thrash, Resident, Sweep, Serve)}
