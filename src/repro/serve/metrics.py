"""Service counters and latency accounting for ``/stats`` and ``/metrics``.

The counters obey one conservation law the protocol tests pin::

    requests == memo_hits + disk_hits + coalesced + executed

Every admitted run unit (a single ``/run`` or ``/fleet`` request, or
one grid point of a ``/sweep``) is classified exactly once at admission
time; ``rejected`` (4xx) and ``errors`` (execution failures) are
tracked outside that identity because a rejected request never reaches
planning and a failed execution was still classified ``executed``.

Both surfaces render from one :class:`repro.obs.metrics.MetricsRegistry`:
the JSON ``/stats`` payload reads the same counter objects the
Prometheus text ``/metrics`` exposition renders, so the two can never
disagree.  Exact percentiles (``/stats``) come from
:func:`repro.sim.stats.nearest_rank_percentile` via the reservoirs;
the registry histograms carry the same observations bucketed for
Prometheus-side aggregation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.sim.stats import nearest_rank_percentile

#: Latency sample cap; beyond it the reservoir stops growing (the
#: percentiles of the first N samples are representative long before
#: N reaches this).
MAX_LATENCY_SAMPLES = 200_000

#: (attribute name, metric name, help text) for every admission counter.
#: One source of truth: the attribute API, the /stats payload, and the
#: /metrics exposition all derive from this table.
COUNTER_METRICS = (
    ("requests", "repro_requests_total", "run units admitted to planning"),
    ("memo_hits", "repro_memo_hits_total", "units answered from the session memo"),
    ("disk_hits", "repro_disk_hits_total", "units answered from the disk cache"),
    ("coalesced", "repro_coalesced_total", "units attached to an in-flight execution"),
    ("executed", "repro_executed_total", "cold executions submitted to the pool"),
    ("errors", "repro_errors_total", "admitted units whose execution raised"),
    ("rejected", "repro_rejected_total", "requests rejected before admission"),
    ("streams", "repro_streams_total", "streaming (SSE) connections opened"),
    ("pool_restarts", "repro_pool_restarts_total", "process pools dropped after a dead worker"),
)


@dataclass
class LatencyReservoir:
    """Wall-clock latency samples with exact nearest-rank percentiles."""

    samples: list[float] = field(default_factory=list)
    count: int = 0

    def add(self, seconds: float) -> None:
        """Record one request latency (seconds)."""
        self.count += 1
        if len(self.samples) < MAX_LATENCY_SAMPLES:
            self.samples.append(seconds)

    def summary(self) -> dict[str, Any]:
        """``{count, mean_ms, p50_ms, p95_ms, p99_ms}`` (zeros when empty)."""
        if not self.samples:
            return {
                "count": self.count,
                "mean_ms": 0.0,
                "p50_ms": 0.0,
                "p95_ms": 0.0,
                "p99_ms": 0.0,
            }
        to_ms = [s * 1000.0 for s in self.samples]
        return {
            "count": self.count,
            "mean_ms": sum(to_ms) / len(to_ms),
            "p50_ms": nearest_rank_percentile(to_ms, 50.0),
            "p95_ms": nearest_rank_percentile(to_ms, 95.0),
            "p99_ms": nearest_rank_percentile(to_ms, 99.0),
        }


class ServiceMetrics:
    """Mutable service-wide counters (single-threaded: the event loop).

    Counter attributes (``metrics.requests += 1`` and friends) are
    properties over registry-held counters, so mutating them through
    either surface keeps ``/stats`` and ``/metrics`` in lockstep.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.started = time.monotonic()
        self.hit_latency = LatencyReservoir()
        self.miss_latency = LatencyReservoir()
        self._counters = {
            attribute: self.registry.counter(name, help_text)
            for attribute, name, help_text in COUNTER_METRICS
        }
        self._uptime = self.registry.gauge(
            "repro_uptime_seconds", "seconds since service start"
        )
        self._in_flight = self.registry.gauge(
            "repro_in_flight", "cold executions currently running or queued"
        )
        self._queue_depth = self.registry.gauge(
            "repro_queue_depth", "executions waiting for a pool worker"
        )
        self._histograms = {
            "hit": self.registry.histogram(
                "repro_request_latency_seconds",
                "request wall-clock latency by admission class",
                labels={"class": "hit"},
            ),
            "miss": self.registry.histogram(
                "repro_request_latency_seconds",
                "request wall-clock latency by admission class",
                labels={"class": "miss"},
            ),
        }

    @property
    def hits(self) -> int:
        """Requests served without awaiting a fresh execution."""
        return self.memo_hits + self.disk_hits

    @property
    def misses(self) -> int:
        """Requests that had to await an execution (own or coalesced)."""
        return self.coalesced + self.executed

    def record_latency(self, source: str, seconds: float) -> None:
        """File one request latency under its admission classification."""
        if source in ("memo", "disk"):
            self.hit_latency.add(seconds)
            self._histograms["hit"].observe(seconds)
        else:
            self.miss_latency.add(seconds)
            self._histograms["miss"].observe(seconds)

    def snapshot(self, in_flight: int, queue_depth: int) -> dict[str, Any]:
        """The ``/stats`` payload (plus live gauges from the service)."""
        uptime = time.monotonic() - self.started
        return {
            "uptime_seconds": uptime,
            "requests": self.requests,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "misses": self.misses,
            "errors": self.errors,
            "rejected": self.rejected,
            "streams": self.streams,
            "pool_restarts": self.pool_restarts,
            "hit_rate": (self.hits / self.requests) if self.requests else 0.0,
            "requests_per_second": (
                self.requests / uptime if uptime > 0 else 0.0
            ),
            "in_flight": in_flight,
            "queue_depth": queue_depth,
            "latency": {
                "hit": self.hit_latency.summary(),
                "miss": self.miss_latency.summary(),
            },
        }

    def exposition(
        self,
        in_flight: int,
        queue_depth: int,
        extra_gauges: dict[str, tuple[str, float]] = {},
    ) -> str:
        """The Prometheus text for ``/metrics``.

        ``extra_gauges`` maps metric name to ``(help, value)`` for
        scrape-time values owned by the service (worker pool size,
        store entry counts).
        """
        self._uptime.set(time.monotonic() - self.started)
        self._in_flight.set(in_flight)
        self._queue_depth.set(queue_depth)
        for name, (help_text, value) in extra_gauges.items():
            self.registry.gauge(name, help_text).set(value)
        return self.registry.render()


def _counter_property(attribute: str):
    def getter(self: ServiceMetrics) -> int:
        return int(self._counters[attribute].value)

    def setter(self: ServiceMetrics, value: int) -> None:
        current = self._counters[attribute].value
        if value < current:
            raise ValueError(
                f"counter {attribute} cannot decrease ({current} -> {value})"
            )
        self._counters[attribute].inc(value - current)

    return property(getter, setter)


for _attribute, _, _ in COUNTER_METRICS:
    setattr(ServiceMetrics, _attribute, _counter_property(_attribute))
del _attribute


__all__ = [
    "COUNTER_METRICS",
    "LatencyReservoir",
    "MAX_LATENCY_SAMPLES",
    "ServiceMetrics",
]
