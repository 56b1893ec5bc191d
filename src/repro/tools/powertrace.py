"""Power-timeline sampling (the simulated ``nvidia-smi dmon``).

A :class:`PowerSampler` polls every device's instantaneous draw on a fixed
period while a runtime run executes, through the same NVML/RAPL facades a
monitoring daemon would use on real hardware.  Start it before
``runtime.run``; it re-arms itself until the run drains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro import nvml
from repro.hardware.node import Node
from repro.runtime.engine import RuntimeSystem


@dataclass(frozen=True)
class PowerSample:
    time_s: float
    device_w: dict[str, float]

    @property
    def total_w(self) -> float:
        return sum(self.device_w.values())


@dataclass
class PowerSampler:
    """Periodic full-node power sampling on the simulation clock."""

    node: Node
    runtime: RuntimeSystem
    period_s: float = 0.05
    samples: list[PowerSample] = field(default_factory=list)
    #: ``(start, end)`` windows during which the meter records nothing
    #: (fault injection: a crashed monitoring daemon, an NVML hiccup).
    #: The tick keeps re-arming through a blackout so sampling resumes on
    #: schedule afterwards; dropped ticks are counted in ``n_dropped``.
    blackouts: list[tuple[float, float]] = field(default_factory=list)
    n_dropped: int = 0
    #: Optional live-telemetry bus; each non-blackout sample also publishes
    #: a ``power`` event so dashboards see the timeline during the run.
    bus: Optional[object] = None

    def __post_init__(self) -> None:
        # A zero period re-arms the tick at the same instant forever, so the
        # simulated clock would never advance.
        if not 0.0 < self.period_s < math.inf:
            raise ValueError(
                f"period_s must be finite and > 0, got {self.period_s!r}"
            )

    def start(self) -> None:
        nvml.nvmlInit(self.node)
        self.runtime.sim.schedule(0.0, self._tick)

    def _in_blackout(self, now: float) -> bool:
        return any(t0 <= now < t1 for t0, t1 in self.blackouts)

    def _tick(self) -> None:
        now = self.runtime.sim.now
        if self._in_blackout(now):
            self.n_dropped += 1
        else:
            reading: dict[str, float] = {}
            for cpu in self.node.cpus:
                # RAPL exposes energy, not power; a daemon differentiates.
                # The model's instantaneous value is equivalent and cheaper.
                reading[cpu.name] = cpu.power_w
            for i in range(len(self.node.gpus)):
                handle = nvml.nvmlDeviceGetHandleByIndex(i)
                reading[f"gpu{i}"] = nvml.nvmlDeviceGetPowerUsage(handle) / 1000.0
            sample = PowerSample(now, reading)
            self.samples.append(sample)
            if self.bus is not None:
                self.bus.publish(
                    {"t": now, "type": "power", "total_w": sample.total_w, **reading}
                )
        if self.runtime.pending_tasks > 0:
            self.runtime.sim.schedule(self.period_s, self._tick)

    # ----------------------------------------------------------------- views

    def devices(self) -> list[str]:
        """Device names covered by the samples (empty before the first tick)."""
        return list(self.samples[0].device_w) if self.samples else []

    def to_records(self) -> list[dict]:
        """Flatten samples to plain dicts (JSONL friendly)."""
        return [
            {"time_s": s.time_s, "total_w": s.total_w, **s.device_w}
            for s in self.samples
        ]

    def counter_tracks(self) -> list:
        """One Perfetto counter track per device (instantaneous watts),
        holding the samples where the device's draw changes
        (:func:`~repro.tools.chrometrace.change_points`)."""
        from repro.tools.chrometrace import CounterTrack, change_points

        samples = self.samples
        times = [float(s.time_s) for s in samples]
        tracks = []
        for device in self.devices():
            kept_times, watts = change_points(
                times, [float(s.device_w[device]) for s in samples])
            tracks.append(CounterTrack(f"power {device}", unit="W",
                                       times=kept_times, values=watts))
        return tracks

    def peak_w(self, device: Optional[str] = None) -> float:
        if not self.samples:
            return 0.0
        if device is None:
            return max(s.total_w for s in self.samples)
        return max(s.device_w[device] for s in self.samples)

    def average_w(self, device: Optional[str] = None) -> float:
        if not self.samples:
            return 0.0
        if device is None:
            return sum(s.total_w for s in self.samples) / len(self.samples)
        return sum(s.device_w[device] for s in self.samples) / len(self.samples)

    def series(self, device: str) -> list[tuple[float, float]]:
        return [(s.time_s, s.device_w[device]) for s in self.samples]
