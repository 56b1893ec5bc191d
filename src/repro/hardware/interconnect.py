"""Host<->GPU interconnect with per-direction FIFO contention.

Each GPU gets a dedicated full-duplex link (PCIe x16 or an NVLink-class
connection).  Transfers in the same direction serialise; opposite directions
do not interfere.  This is the model StarPU itself assumes when it estimates
transfer penalties in its ``dmda`` scheduler.
"""

from __future__ import annotations

from typing import Literal, Optional

from repro.hardware.gpu import Clock
from repro.hardware.specs import LinkSpec
from repro.sim.tracing import Tracer

Direction = Literal["h2d", "d2h"]

DIRECTIONS: tuple[Direction, Direction] = ("h2d", "d2h")


class Link:
    """One full-duplex host<->device link."""

    def __init__(
        self,
        spec: LinkSpec,
        clock: Clock,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        self._clock = clock
        self._tracer = tracer
        self._avail_at: dict[Direction, float] = {"h2d": 0.0, "d2h": 0.0}
        self.bytes_moved: dict[Direction, int] = {"h2d": 0, "d2h": 0}
        self.n_transfers: dict[Direction, int] = {"h2d": 0, "d2h": 0}
        # Uncontended transfer times depend only on (spec, nbytes), and
        # tile workloads use a handful of distinct sizes — memoise them.
        self._tt_memo: dict[int, float] = {}

    def _transfer_time(self, nbytes: int) -> float:
        tt = self._tt_memo.get(nbytes)
        if tt is None:
            tt = self._tt_memo[nbytes] = self.spec.transfer_time(nbytes)
        return tt

    def busy_until(self, direction: Direction) -> float:
        """Completion time of the last booked transfer in ``direction``."""
        return self._avail_at[direction]

    def estimate(self, nbytes: int, direction: Direction) -> float:
        """Completion-time estimate for a transfer submitted now (seconds
        from now), including queueing behind in-flight transfers."""
        now = self._clock.now
        avail = self._avail_at[direction]
        return ((avail if avail > now else now) - now) + self._transfer_time(nbytes)

    def stall_until(self, time: float, label: str = "") -> None:
        """Block both directions of the link until an absolute time.

        Models a bus stall (retraining, contention from outside the
        runtime): transfers already booked keep their slots, new
        reservations queue behind the stall.  A no-op if the link is
        already busy past ``time``.
        """
        for direction in DIRECTIONS:
            self._avail_at[direction] = max(self._avail_at[direction], time)
        if self._tracer is not None:
            self._tracer.point(self.name, "stall", self._clock.now, label)

    def reserve(
        self,
        nbytes: int,
        direction: Direction,
        label: str = "",
        not_before: Optional[float] = None,
    ) -> tuple[float, float]:
        """Book a transfer; returns absolute ``(start, end)`` times."""
        if direction not in DIRECTIONS:
            raise ValueError(f"bad direction {direction!r}")
        # The start: the latest of now, not_before and the queue's end
        # (the earlier one on a tie, as max() picks).
        start = self._clock.now
        if not_before is not None and not_before > start:
            start = not_before
        avail_at = self._avail_at
        avail = avail_at[direction]
        if avail > start:
            start = avail
        tt = self._tt_memo.get(nbytes)
        if tt is None:
            tt = self._transfer_time(nbytes)
        end = start + tt
        avail_at[direction] = end
        self.bytes_moved[direction] += nbytes
        self.n_transfers[direction] += 1
        if self._tracer is not None and nbytes > 0:
            self._tracer.interval(
                self.name, f"xfer-{direction}", start, end, label, nbytes=nbytes
            )
        return start, end

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} {self.spec.bandwidth_gbs} GB/s>"
