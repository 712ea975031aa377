"""Host-speed calibration: a fixed loop sampled while the program runs.

On a shared virtual machine the speed of a vCPU changes by up to 1.7x
from one moment to the next, as other guests load the same cores and
caches, and it can stay slow for minutes. The CPU clock does not hide
that: a slow second costs more CPU seconds for the same work. So while
an operation runs, a :class:`Sampler` interrupts it every
:data:`PERIOD_S` of CPU time (``SIGPROF``) and times :func:`loop`, a
fixed piece of interpreter work small enough to stay in the L1 cache,
so that its time depends on the host and not on what the interrupted
code left in the caches. The loop times taken during a section say how
fast the host was during that section; the section's own CPU time (its
time minus the samples') is scaled by ``REFERENCE_S / mean loop
time``. A scaled time is thus the time the section would have taken on
a host where one loop takes :data:`REFERENCE_S`: work the program
stops doing shows in full, the host's speed at that moment cancels
out.

A workload that slows down more or less than the loop raises the
ratio to its ``host_sensitivity`` (see :meth:`Sampler.scaled`).  The
loop never calls the program, so no change to the program moves it.
Samples cost about 3% of the CPU time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from dataclasses import dataclass

#: CPU seconds between two samples.
PERIOD_S = 0.02
#: Steps of one :func:`loop`.
STEPS = 1_000
#: CPU seconds of one sampled :func:`loop` on the reference host: about
#: the fast-mode median on a 2-vCPU KVM guest of an Intel Xeon, whose
#: slow mode takes about 1.5 times as long.
REFERENCE_S = 0.000260
#: Fewest samples a section is scaled by; a shorter section borrows the
#: samples nearest to it in time.
MIN_SAMPLES = 8

_TABLE = {key: key * 7 for key in range(512)}
_ROW = list(range(256))


def loop(steps: int = STEPS) -> int:
    """A fixed amount of interpreter work that fits in the L1 cache and
    allocates no object the garbage collector tracks; returns a
    checksum."""
    state = 12345
    checksum = 0
    table = _TABLE
    row = _ROW
    for _ in range(steps):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        checksum += table[state & 511] ^ row[state & 255]
    return checksum


@dataclass
class Section:
    """One timed section: its main-thread CPU seconds without the
    samples taken in it, and the wall-clock interval it spans."""

    own_s: float
    began: float
    ended: float


class Sampler:
    """Samples :func:`loop` every :data:`PERIOD_S` of CPU time while
    installed (``with sampler:``)."""

    def __init__(self) -> None:
        #: wall-clock time and duration of every sample, in order
        self.at: list[float] = []
        self.took: list[float] = []
        #: total CPU seconds of every sample so far
        self.total = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # one untimed loop first, so the timed one finds its data in the
        # caches whatever the interrupted code left there
        began = time.thread_time()
        loop()
        warm = time.thread_time()
        loop()
        ended = time.thread_time()
        took = ended - warm
        self.at.append(time.perf_counter())
        self.took.append(took)
        self.total += ended - began

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def start(self) -> tuple[float, float, float]:
        return time.thread_time(), time.perf_counter(), self.total

    def stop(self, started: tuple[float, float, float]) -> Section:
        cpu, wall, sampled = started
        own = time.thread_time() - cpu - (self.total - sampled)
        return Section(own_s=own, began=wall, ended=time.perf_counter())

    def loop_s(self, began: float, ended: float) -> float:
        """Mean loop time over ``[began, ended]``, widened to the
        :data:`MIN_SAMPLES` nearest samples when it holds fewer."""
        if not self.took:
            return REFERENCE_S
        low = bisect.bisect_left(self.at, began)
        high = bisect.bisect_right(self.at, ended)
        if high - low < MIN_SAMPLES:
            middle = (low + high) // 2
            low = max(0, min(middle - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            high = min(len(self.at), low + MIN_SAMPLES)
        return statistics.fmean(self.took[low:high])

    def scaled(self, section: Section, sensitivity: float = 1.0) -> float:
        """The section's own CPU seconds on the reference host.

        ``sensitivity`` is how much more than the loop the section's
        code slows down when the host does: the slope of its log time
        over the log loop time (``sensitivity.py`` measures it).
        """
        speed = REFERENCE_S / self.loop_s(section.began, section.ended)
        return section.own_s * speed ** sensitivity
