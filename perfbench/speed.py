"""Timing at a nominal machine speed.

The benchmark runs on a couple of virtual CPUs of a shared host.  When
other tenants load the host, the same Python code runs up to about 1.7
times slower, for seconds to minutes at a time, so a wall clock alone
measures the neighbours as much as the program.

A :class:`Speedometer` runs a fixed tiny loop (:func:`probe_loop`) every
``PERIOD_S`` seconds from a ``SIGALRM`` handler.  CPython runs signal
handlers on the main thread between bytecodes, so each probe runs on the
thread being measured, at the moment it is measured, and slows down with
it.  :meth:`Speedometer.nominal` turns a wall interval into the seconds it
would have taken at the nominal speed: each stretch of the interval
between two probes is scaled by ``NOMINAL_PROBE_S`` over the duration of
the probe that ends it, and the probes' own time is left out.

Only the main thread may take the signal, or a system call on another
thread could be interrupted: every thread the benchmark starts calls
:func:`mask_probes` first, and the threads it starts in turn inherit that.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
#: Median duration of :func:`probe_loop` on the reference machine (see
#: NOTES.md) while its host was quiet.
NOMINAL_PROBE_S = 33.5e-6
#: Intervals with fewer probes inside borrow the nearest ones.
MIN_PROBES = 10
#: Probes slower than this many medians were interrupted (a host
#: interrupt, a page fault), not slowed down, and are left out.
OUTLIER = 3.0


def probe_loop() -> int:
    table: dict[int, int] = {}
    x = 0
    for i in range(300):
        table[i & 15] = x
        x = (x + table.get(i & 7, 1) * 3) & 0xFFFF
    return x


def mask_probes() -> None:
    """Keep the probe signal off the calling thread."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _durations(self, lo: int, hi: int) -> list[float]:
        return [self.ends[i] - self.starts[i] for i in range(lo, hi)]

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean probe duration in ``[t0, t1]`` over the nominal one."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        durations = self._durations(lo, hi)
        if not durations:
            raise RuntimeError("no speed probe ran")
        cut = OUTLIER * statistics.median(durations)
        return statistics.fmean(d for d in durations if d <= cut) / NOMINAL_PROBE_S

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds ``[t0, t1]`` would have taken at the nominal speed.

        Each stretch between probes is scaled by the probe that ends it;
        the probes' own time is left out.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        durations = self._durations(lo, hi)
        if len(durations) < MIN_PROBES:
            return (t1 - t0 - sum(durations)) / self.slowdown(t0, t1)
        cut = OUTLIER * statistics.median(durations)
        work, mark = 0.0, t0
        for i, d in zip(range(lo, hi), durations):
            work += (self.starts[i] - mark) * NOMINAL_PROBE_S / min(d, cut)
            mark = self.ends[i]
        return work + (t1 - mark) * NOMINAL_PROBE_S / min(durations[-1], cut)
