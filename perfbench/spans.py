"""In-memory spans around the public calls of each layer.

The benchmark measures the program from outside: while a
:class:`Recorder` is installed, the public functions and methods listed
in :data:`TARGETS` are replaced by thin wrappers that record one span
per call (name, start, end, parent span, operation id) and then call
the original.  Nothing inside ``src/`` is changed; uninstalling puts
every original back.  Spans stay in memory and are written at exit as
Chrome ``trace_event`` JSONL, the format ``python -m repro trace
summary`` reads.

Spans are timed on the main thread's CPU clock, like every timing of
the benchmark, and laid out on that clock in the trace file.  A span's
*self time* is its duration minus the time its child spans cover.  Parents are tracked per asyncio task (a ``ContextVar``), so the
server-side spans of two concurrent serve clients never adopt each
other.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import importlib
import inspect
import json
import os
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: ``(module, attribute path, layer)`` of every wrapped public call.  An
#: attribute path with a dot names a method (``Class.method``).  The
#: same function is wrapped under every module name it is called
#: through, because ``from x import f`` copies the reference.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.api.session", "make_workload", "workloads.trace"),
    ("repro.api.session", "resolve_trace", "workloads.trace"),
    ("repro.sim.simulator", "resolve_trace", "workloads.trace"),
    ("repro.sim.simulator", "Simulator.__init__", "sim.build"),
    ("repro.sim.simulator", "Simulator.run", "sim.run"),
    ("repro.sim.snapshot", "RestoredRun.resume", "sim.resume"),
    ("repro.sim.snapshot", "capture_snapshot", "snapshot.capture"),
    ("repro.api.session", "restore_run", "snapshot.restore"),
    ("repro.api.session", "execute_request_checkpointed", "api.checkpoint_scan"),
    ("repro.api.checkpoint", "CheckpointStore.save", "api.checkpoint_save"),
    ("repro.api.checkpoint", "CheckpointStore.load", "api.checkpoint_load"),
    ("repro.api.cache", "ResultCache.put", "api.cache_put"),
    ("repro.api.cache", "ResultCache.get", "api.cache_get"),
    ("repro.api.cache", "encode_result", "api.encode"),
    ("repro.serve.service", "encode_result", "api.encode"),
    ("repro.api.session", "Session.plan_batch", "api.plan"),
    ("repro.serve.service", "SimulationService.submit", "serve.submit"),
    ("repro.serve.http", "parse_run_payload", "serve.parse"),
)

_CURRENT: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: Operation (one run or one client request) the current task works on.
_OP: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_op", default=-1
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: Optional[int] = None
    op: int = -1
    args: dict[str, Any] = field(default_factory=dict)


class Recorder:
    """Collects spans; installs and removes the call wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._tasks: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._task_count = 0
        self._originals: list[tuple[Any, str, Any]] = []
        self._anchor_ns = time.thread_time_ns()
        self._anchor_epoch_us = time.time_ns() // 1000

    # -- recording -----------------------------------------------------
    @staticmethod
    @contextlib.contextmanager
    def operation(op: int):
        """Tag the spans the current task records inside with ``op``."""
        token = _OP.set(op)
        try:
            yield
        finally:
            _OP.reset(token)

    @contextlib.contextmanager
    def span(self, name: str, **args: Any):
        handle = self.begin(name, **args)
        try:
            yield
        finally:
            self.end(handle)

    def begin(self, name: str, **args: Any) -> tuple[int, contextvars.Token]:
        op = _OP.get()
        if op < 0:
            # a server connection task: one request per connection, so
            # the task's sequence number identifies the request
            try:
                task = asyncio.current_task()
            except RuntimeError:
                task = None
            if task is not None:
                if task not in self._tasks:
                    self._tasks[task] = self._task_count
                    self._task_count += 1
                args["task"] = self._tasks[task]
        index = len(self.spans)
        self.spans.append(
            Span(name, time.thread_time_ns(), parent=_CURRENT.get(),
                 op=op, args=args)
        )
        return index, _CURRENT.set(index)

    def end(self, handle: tuple[int, contextvars.Token]) -> Span:
        index, token = handle
        span = self.spans[index]
        span.end_ns = time.thread_time_ns()
        _CURRENT.reset(token)
        return span

    def wrap(self, function: Callable, name: str) -> Callable:
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                handle = self.begin(name)
                try:
                    return await function(*args, **kwargs)
                finally:
                    self.end(handle)

            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            handle = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                span = self.end(handle)
            if name == "api.checkpoint_save":
                span.args["bytes"] = os.path.getsize(result)
            return result

        return wrapper

    # -- installation --------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("recorder already installed")
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attribute = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Self time per span name: duration minus child-span time."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_ns):
            own = span.end_ns - span.start_ns - children
            totals[span.name] = totals.get(span.name, 0.0) + own / 1e9
        return totals

    def count(self, name: str, parent: Optional[str] = None) -> int:
        """Spans called ``name`` (whose parent is ``parent``, if given)."""
        return sum(
            1 for span in self.spans
            if span.name == name and (
                parent is None
                or (span.parent is not None
                    and self.spans[span.parent].name == parent)
            )
        )

    def arg_total(self, name: str, arg: str) -> int:
        return sum(span.args.get(arg, 0) for span in self.spans
                   if span.name == name)

    def write_jsonl(self, path: str) -> None:
        """Write every span as a Chrome ``trace_event`` complete event."""
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                args = {"span": index, "op": span.op, **span.args}
                if span.parent is not None:
                    args["parent"] = span.parent
                event = {
                    "name": span.name,
                    "cat": span.name.split(".")[0],
                    "ph": "X",
                    "ts": self._anchor_epoch_us
                    + (span.start_ns - self._anchor_ns) // 1000,
                    "dur": (span.end_ns - span.start_ns) // 1000,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
                stream.write(json.dumps(event, separators=(",", ":")) + "\n")
