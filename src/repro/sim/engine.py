"""Deterministic discrete-event simulation engine.

The engine is intentionally small: timestamped events ordered by
``(time, seq)`` with a monotonically increasing sequence number as
tie-breaker, which makes execution order fully deterministic for equal
timestamps.  All simulated components (devices, workers, links) schedule
plain callbacks; there is no coroutine machinery, which keeps the hot loop
cheap enough to simulate DAGs with tens of thousands of tasks in well under
a second.

Events are plain ``(time, seq, fn, args, handle)`` tuples, so every
ordering decision is a C-level tuple comparison on ``(time, seq)`` —
``seq`` is unique, the trailing fields are never compared.  The pending
set is split into two structures:

- a **monotonic tail** (:class:`collections.deque`): an event whose key is
  >= every key ever admitted to the tail is appended in O(1) and popped in
  O(1).  Discrete-event workloads are overwhelmingly monotonic — callbacks
  schedule things at or after the current frontier — so the common case
  never touches a heap, and a same-timestamp burst costs one append/pop
  per event instead of a full O(log n) sift pair;
- a **spill heap** (``heapq``) for the out-of-order remainder (e.g. a
  retry scheduled *before* an already-queued deadline).  The drain loop
  merges the two fronts by key, so global ordering is exactly the classic
  single-heap semantics.

Events that nothing will ever cancel can skip the :class:`EventHandle`
allocation entirely via :meth:`Simulator.post` / :meth:`Simulator.post_at`
(``handle`` stays ``None``); this is the enqueue path the runtime engine
uses whenever no fault injector needs a cancel hook, and it is measurably
faster than :meth:`Simulator.schedule`.

:meth:`Simulator.run` drains in a single loop — cancelled fronts are
discarded and live events fired in the same pass — and the bounded path
(``until`` / ``max_events``) delivers bursts of equal-timestamp events as
one batch: the stop conditions are evaluated once per distinct timestamp,
not once per event.

Time is a float in **seconds**.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: Event tuple layout (the drain loops hard-code these indices).
_TIME, _SEQ, _FN, _ARGS, _HANDLE = range(5)

_NEG_INF = float("-inf")
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on invalid engine usage (e.g. scheduling in the past)."""


@dataclass
class EngineTotals:
    """Process-wide accumulation of engine work across all Simulators.

    Every :meth:`Simulator.run` flushes its deltas here, so tools that
    compare whole workloads (e.g. the warm-vs-cold cache benchmark) can
    report how much simulation work actually happened without threading a
    registry into every engine.  Counters only reflect work done in *this* process —
    pool workers accumulate their own.
    """

    events: int = 0
    compactions: int = 0
    cancelled: int = 0

    def snapshot(self) -> tuple[int, int, int]:
        return (self.events, self.compactions, self.cancelled)


#: The per-process accumulator (import and snapshot around a workload).
ENGINE_TOTALS = EngineTotals()


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.9f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    ``now`` — the current simulation time in seconds — is a plain slot
    attribute, not a property: the engine, the devices and the links read
    it several times per simulated task.  Only the simulator advances it;
    callers treat it as read-only.

    Example
    -------
    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(2.0, out.append, "b")
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> sim.run()
    >>> out
    ['a', 'b']
    >>> sim.now
    2.0
    """

    #: Don't bother compacting pending sets smaller than this — popping
    #: lazily is cheap and compacting tiny sets would thrash.
    COMPACT_MIN_SIZE = 64

    __slots__ = (
        "_tail",
        "_spill",
        "_tail_key",
        "_seq",
        "now",
        "_running",
        "_n_cancelled",
        "n_processed",
        "n_compactions",
        "n_cancelled_total",
        "_flushed_events",
        "_flushed_compactions",
        "_flushed_cancelled",
    )

    def __init__(self) -> None:
        self._tail: deque[tuple] = deque()
        self._spill: list[tuple] = []
        self._tail_key = _NEG_INF  # high-water time admitted to the tail
        self._seq = 0
        self.now = 0.0  # current simulation time (s); only the drain loops move it
        self._running = False
        self._n_cancelled = 0
        self.n_processed = 0
        self.n_compactions = 0
        self.n_cancelled_total = 0
        self._flushed_events = 0
        self._flushed_compactions = 0
        self._flushed_cancelled = 0

    # ------------------------------------------------------------- scheduling

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to fire ``delay`` seconds from now."""
        # One chained comparison: rejects negative, NaN and inf delays.
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        time = self.now + delay
        handle = EventHandle(time, fn, args, self)
        seq = self._seq
        self._seq = seq + 1
        if time >= self._tail_key:
            self._tail_key = time
            self._tail.append((time, seq, fn, args, handle))
        else:
            heappush(self._spill, (time, seq, fn, args, handle))
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"event time must be finite and >= now (t={self.now}), got {time!r}"
            )
        handle = EventHandle(time, fn, args, self)
        seq = self._seq
        self._seq = seq + 1
        if time >= self._tail_key:
            self._tail_key = time
            self._tail.append((time, seq, fn, args, handle))
        else:
            heappush(self._spill, (time, seq, fn, args, handle))
        return handle

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast-path :meth:`schedule` for events nothing will ever cancel.

        Skips the :class:`EventHandle` allocation; the event cannot be
        cancelled.  This is the cheapest way to enqueue work and what the
        runtime engine uses when no fault injector needs a cancel hook.
        """
        # One chained comparison: rejects negative, NaN and inf delays.
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        if time >= self._tail_key:
            self._tail_key = time
            self._tail.append((time, seq, fn, args, None))
        else:
            heappush(self._spill, (time, seq, fn, args, None))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fast-path :meth:`schedule_at`: absolute-time, non-cancellable."""
        if not self.now <= time < _INF:
            raise SimulationError(
                f"event time must be finite and >= now (t={self.now}), got {time!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        if time >= self._tail_key:
            self._tail_key = time
            self._tail.append((time, seq, fn, args, None))
        else:
            heappush(self._spill, (time, seq, fn, args, None))

    # ------------------------------------------------------------- compaction

    def _note_cancelled(self) -> None:
        """Called by :meth:`EventHandle.cancel`; compacts the pending set
        when cancelled entries outnumber live ones.

        Cancelled events are normally discarded lazily as they surface at
        the queue front, but a workload that cancels much more than it
        fires (e.g. timeout guards) would otherwise accumulate dead entries
        and inflate every queue operation.  Compaction filters them out —
        in place, so the drain loops' local references stay valid even when
        a fired callback cancels enough events to compact mid-run.  Entries
        keep their (time, seq) keys, so event order is unchanged.
        """
        self._n_cancelled += 1
        self.n_cancelled_total += 1
        n = len(self._tail) + len(self._spill)
        if n >= self.COMPACT_MIN_SIZE and self._n_cancelled * 2 > n:
            tail = self._tail
            live = [e for e in tail if e[_HANDLE] is None or not e[_HANDLE].cancelled]
            tail.clear()
            tail.extend(live)  # tail was key-sorted; filtering preserves that
            spill = self._spill
            spill[:] = [
                e for e in spill if e[_HANDLE] is None or not e[_HANDLE].cancelled
            ]
            heapify(spill)
            self._n_cancelled = 0
            self.n_compactions += 1

    # ---------------------------------------------------------------- driving

    def _front(self) -> Optional[tuple]:
        """The live minimum-key entry, discarding cancelled fronts.

        Returns the entry without removing it (``None`` when idle).
        """
        tail, spill = self._tail, self._spill
        while True:
            if spill:
                if tail and tail[0] < spill[0]:
                    entry, from_tail = tail[0], True
                else:
                    entry, from_tail = spill[0], False
            elif tail:
                entry, from_tail = tail[0], True
            else:
                return None
            handle = entry[_HANDLE]
            if handle is None or not handle.cancelled:
                return entry
            if from_tail:
                tail.popleft()
            else:
                heappop(spill)
            self._n_cancelled -= 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the pending set drains, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` advances the clock to exactly ``until`` when the queue
        drains earlier, mirroring how a wall-clock measurement window
        behaves.

        The drain is a single loop: cancelled fronts are discarded and live
        events fired in the same pass.  The unbounded path is a tight pop-check-fire loop; the
        bounded path batches equal-timestamp bursts so the stop conditions
        are evaluated once per distinct timestamp.
        """
        if self._running:
            raise SimulationError("run() is not re-entrant")
        self._running = True
        tail = self._tail
        spill = self._spill
        popleft = tail.popleft
        pop = heappop
        processed = 0
        try:
            if until is None and max_events is None:
                # Tight drain: merge the two fronts, fire, repeat.
                while True:
                    if spill:
                        if tail and tail[0] < spill[0]:
                            entry = popleft()
                        else:
                            entry = pop(spill)
                    elif tail:
                        entry = popleft()
                    else:
                        break
                    time, _seq, fn, args, handle = entry
                    if handle is not None and handle.cancelled:
                        self._n_cancelled -= 1
                        continue
                    self.now = time
                    processed += 1
                    fn(*args)
            else:
                while True:
                    entry = self._front()
                    if entry is None:
                        break
                    time = entry[_TIME]
                    if until is not None and time > until:
                        break
                    if max_events is not None and processed >= max_events:
                        break
                    if tail and tail[0] is entry:
                        popleft()
                    else:
                        pop(spill)
                    self.now = time
                    processed += 1
                    entry[_FN](*entry[_ARGS])
                    # Batch delivery: every remaining event at this exact
                    # timestamp was admitted by the ``until`` check above,
                    # so fire the burst without re-evaluating it per event.
                    while True:
                        if max_events is not None and processed >= max_events:
                            break
                        if spill:
                            if tail and tail[0] < spill[0]:
                                nxt, from_tail = tail[0], True
                            else:
                                nxt, from_tail = spill[0], False
                        elif tail:
                            nxt, from_tail = tail[0], True
                        else:
                            break
                        if nxt[_TIME] != time:
                            break
                        if from_tail:
                            popleft()
                        else:
                            pop(spill)
                        handle = nxt[_HANDLE]
                        if handle is not None and handle.cancelled:
                            self._n_cancelled -= 1
                            continue
                        processed += 1
                        nxt[_FN](*nxt[_ARGS])
        finally:
            self.n_processed += processed
            self._running = False
            self._flush_totals()
        if until is not None and until > self.now:
            self.now = until

    def _flush_totals(self) -> None:
        """Push this simulator's work deltas into :data:`ENGINE_TOTALS`."""
        ENGINE_TOTALS.events += self.n_processed - self._flushed_events
        ENGINE_TOTALS.compactions += self.n_compactions - self._flushed_compactions
        ENGINE_TOTALS.cancelled += self.n_cancelled_total - self._flushed_cancelled
        self._flushed_events = self.n_processed
        self._flushed_compactions = self.n_compactions
        self._flushed_cancelled = self.n_cancelled_total
