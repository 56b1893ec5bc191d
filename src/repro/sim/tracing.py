"""Execution trace collection.

Workers, devices and links record :class:`Interval` entries (busy periods,
transfers) and :class:`Point` entries (instantaneous markers such as cap
changes).  The tracer is what the energy accounting and the Gantt exporters
consume; it is deliberately append-only so tracing never perturbs scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class Interval:
    """A half-open busy interval ``[start, end)`` attributed to a resource."""

    resource: str
    kind: str
    start: float
    end: float
    label: str = ""
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share a positive-length overlap."""
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class Point:
    """An instantaneous trace marker."""

    resource: str
    kind: str
    time: float
    label: str = ""
    info: dict = field(default_factory=dict)


class Tracer:
    """Append-only trace sink with simple query helpers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.intervals: list[Interval] = []
        self.points: list[Point] = []
        # Per-resource interval index, maintained on append so the query
        # helpers stay O(resource's intervals) instead of rescanning the
        # full list — report generation over large traces was quadratic.
        # Insertion order doubles as first-appearance order for resources().
        self._by_resource: dict[str, list[Interval]] = {}

    def interval(
        self,
        resource: str,
        kind: str,
        start: float,
        end: float,
        label: str = "",
        **info: Any,
    ) -> None:
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"interval end {end} before start {start}")
        iv = Interval(resource, kind, start, end, label, info)
        self.intervals.append(iv)
        self._by_resource.setdefault(resource, []).append(iv)

    def point(self, resource: str, kind: str, time: float, label: str = "", **info: Any) -> None:
        if not self.enabled:
            return
        self.points.append(Point(resource, kind, time, label, info))

    # ---------------------------------------------------------------- queries

    def by_resource(self, resource: str) -> list[Interval]:
        return list(self._by_resource.get(resource, ()))

    def by_kind(self, kind: str) -> list[Interval]:
        return [iv for iv in self.intervals if iv.kind == kind]

    def resources(self) -> list[str]:
        return list(self._by_resource)

    def busy_time(self, resource: str, kinds: Optional[Iterable[str]] = None) -> float:
        """Total busy time on a resource, merging overlapping intervals."""
        kindset = set(kinds) if kinds is not None else None
        ivs = sorted(
            (
                iv
                for iv in self._by_resource.get(resource, ())
                if kindset is None or iv.kind in kindset
            ),
            key=lambda iv: iv.start,
        )
        total = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for iv in ivs:
            if cur_start is None:
                cur_start, cur_end = iv.start, iv.end
            elif iv.start <= cur_end:
                cur_end = max(cur_end, iv.end)
            else:
                total += cur_end - cur_start
                cur_start, cur_end = iv.start, iv.end
        if cur_start is not None:
            total += cur_end - cur_start
        return total

    def makespan(self) -> float:
        """End of the latest interval (0.0 on an empty trace)."""
        return max((iv.end for iv in self.intervals), default=0.0)

    def to_records(self) -> list[dict]:
        """Flatten intervals to plain dicts (CSV/JSON friendly)."""
        return [
            {
                "resource": iv.resource,
                "kind": iv.kind,
                "start": iv.start,
                "end": iv.end,
                "label": iv.label,
                **iv.info,
            }
            for iv in self.intervals
        ]
