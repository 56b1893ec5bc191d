"""Stateful GPU device: power capping, boost clocks, energy integration.

A :class:`GPUDevice` executes at most one kernel at a time (mirroring a
StarPU CUDA worker driving one stream).  Its power draw is a step function of
time — idle power between kernels, the profile's capped busy power during a
kernel — and the energy counter integrates that step function exactly, which
is what the simulated NVML total-energy counter reads.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.hardware.specs import GPUSpec
from repro.sim.tracing import Tracer


class Clock(Protocol):
    """Anything with a ``now`` attribute in seconds (e.g. the Simulator)."""

    now: float


class PowerLimitError(ValueError):
    """Raised for cap requests outside the device constraints."""


class CapSetFailure(PowerLimitError):
    """Transient driver-level failure applying a power cap.

    Distinct from a range violation: the request was valid but the driver
    refused it (the NVML facade maps this to ``NVML_ERROR_UNKNOWN``).
    Raised by fault-injection hooks; retrying may succeed.
    """


class DeviceBusyError(RuntimeError):
    """Raised when a second kernel is started on a busy device."""


class GPUDevice:
    """One simulated GPU with NVML-style power management."""

    def __init__(
        self,
        spec: GPUSpec,
        index: int,
        clock: Clock,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self.index = index
        self.name = f"gpu{index}"
        self._clock = clock
        self._tracer = tracer
        self._power_limit_w = spec.cap_max_w
        self._thermal_limit_w: Optional[float] = None
        #: Fault-injection hook for cap requests.  When set, it is called as
        #: ``hook(device, watts)`` before range validation and may raise
        #: :class:`CapSetFailure` (driver error) or return altered watts
        #: (silent clamp).  ``None`` — the default — costs one check on the
        #: (cold) cap-change path only.
        self.cap_fault: Optional[Callable[["GPUDevice", float], float]] = None
        self._busy = False
        self._kernel_label = ""
        self._power_w = spec.idle_w
        self._energy_j = 0.0
        self._last_t = clock.now
        # (precision, activity) -> (freq, busy power) under the current cap.
        # freq_at_cap is a 60-iteration bisection; the operating point only
        # changes with the cap, so set_power_limit invalidates this cache.
        self._op_point_cache: dict[tuple[str, float], tuple[float, float]] = {}
        # Kernel-model scratch cache (e.g. tile-op ground-truth durations),
        # valid for the current cap only; cleared alongside the cache above.
        self.kernel_time_cache: dict = {}
        # Operating-point cache traffic, exported by the observability layer.
        self.n_op_cache_hits = 0
        self.n_op_cache_misses = 0

    # ------------------------------------------------------------ accounting

    def _advance(self) -> None:
        now = self._clock.now
        if now < self._last_t:
            raise RuntimeError("clock moved backwards")
        self._energy_j += self._power_w * (now - self._last_t)
        self._last_t = now

    def energy_j(self) -> float:
        """Total energy consumed since construction (Joules)."""
        self._advance()
        return self._energy_j

    def reset_energy(self) -> None:
        self._advance()
        self._energy_j = 0.0

    @property
    def power_w(self) -> float:
        """Instantaneous power draw (W)."""
        return self._power_w

    @property
    def busy(self) -> bool:
        return self._busy

    # ---------------------------------------------------------- power limits

    @property
    def power_limit_w(self) -> float:
        return self._power_limit_w

    def set_power_limit(self, watts: float) -> None:
        """Apply a power cap; NVML-style range validation."""
        if self.cap_fault is not None:
            watts = self.cap_fault(self, float(watts))
        if not self.spec.cap_min_w <= watts <= self.spec.cap_max_w:
            raise PowerLimitError(
                f"{self.spec.model}: cap {watts} W outside "
                f"[{self.spec.cap_min_w}, {self.spec.cap_max_w}] W"
            )
        self._power_limit_w = float(watts)
        self._op_point_cache.clear()
        self.kernel_time_cache.clear()
        if self._tracer is not None:
            self._tracer.point(self.name, "cap", self._clock.now, f"{watts:.0f}W")

    @property
    def enforced_limit_w(self) -> float:
        """The limit the governor actually honours right now.

        NVML keeps reporting the *configured* cap while the device is
        thermally throttled below it; the boost governor follows the lower
        of the two.  This is what the operating point is computed from.
        """
        if self._thermal_limit_w is None:
            return self._power_limit_w
        return min(self._power_limit_w, self._thermal_limit_w)

    def set_thermal_limit(self, watts: float) -> None:
        """Throttle the device below its configured cap (thermal event).

        Unlike :meth:`set_power_limit` this does not change the reported
        cap — exactly like real hardware, where a hot GPU silently runs
        slower than its NVML limit.  Kernel-time and operating-point caches
        are invalidated, as they are keyed on the enforced limit.
        """
        self._thermal_limit_w = max(float(watts), self.spec.cap_min_w)
        self._op_point_cache.clear()
        self.kernel_time_cache.clear()
        if self._tracer is not None:
            self._tracer.point(
                self.name, "throttle", self._clock.now,
                f"{self._thermal_limit_w:.0f}W",
            )

    def clear_thermal_limit(self) -> None:
        """Lift a thermal throttle; the configured cap rules again."""
        if self._thermal_limit_w is None:
            return
        self._thermal_limit_w = None
        self._op_point_cache.clear()
        self.kernel_time_cache.clear()
        if self._tracer is not None:
            self._tracer.point(self.name, "throttle", self._clock.now, "clear")

    @property
    def throttled(self) -> bool:
        """True while a thermal limit below the configured cap is active."""
        return (
            self._thermal_limit_w is not None
            and self._thermal_limit_w < self._power_limit_w
        )

    def power_limit_fraction(self) -> float:
        """Current cap as a fraction of TDP."""
        return self._power_limit_w / self.spec.tdp_w

    # ------------------------------------------------------- operating point

    def _operating_point(self, precision: str, activity: float) -> tuple[float, float]:
        """``(freq, busy power)`` under the current cap, cached per
        (precision, activity) until the next :meth:`set_power_limit`."""
        key = (precision, activity)
        point = self._op_point_cache.get(key)
        if point is None:
            self.n_op_cache_misses += 1
            profile = self.spec.power_profiles[precision]
            f = profile.freq_at_cap(self.enforced_limit_w, activity)
            point = (f, profile.power(f, activity))
            self._op_point_cache[key] = point
        else:
            self.n_op_cache_hits += 1
        return point

    def effective_freq(self, precision: str, activity: float = 1.0) -> float:
        """Boost frequency (normalised) the governor reaches under the cap."""
        return self._operating_point(precision, activity)[0]

    def perf_scale(self, precision: str, activity: float = 1.0) -> float:
        """Throughput relative to the uncapped device for this workload."""
        profile = self.spec.power_profiles[precision]
        return profile.perf_scale(self.effective_freq(precision, activity))

    def busy_power(self, precision: str, activity: float = 1.0) -> float:
        """Power drawn while running such a kernel under the current cap."""
        return self._operating_point(precision, activity)[1]

    # ------------------------------------------------------------- execution

    def begin_kernel(self, precision: str, activity: float = 1.0, label: str = "") -> float:
        """Mark the device busy; returns the effective normalised frequency."""
        if self._busy:
            raise DeviceBusyError(f"{self.name} already running {self._kernel_label!r}")
        self._busy = True
        self._kernel_label = label
        # _operating_point's cache hit and the energy step (_advance, then
        # the new draw), inlined: this runs once per GPU task.
        point = self._op_point_cache.get((precision, activity))
        if point is None:
            point = self._operating_point(precision, activity)
        else:
            self.n_op_cache_hits += 1
        now = self._clock.now
        last = self._last_t
        if now < last:
            raise RuntimeError("clock moved backwards")
        self._energy_j += self._power_w * (now - last)
        self._last_t = now
        self._power_w = point[1]
        return point[0]

    def end_kernel(self) -> None:
        if not self._busy:
            raise RuntimeError(f"{self.name} not running a kernel")
        self._busy = False
        self._kernel_label = ""
        # The energy step, inlined (see begin_kernel).
        now = self._clock.now
        last = self._last_t
        if now < last:
            raise RuntimeError("clock moved backwards")
        self._energy_j += self._power_w * (now - last)
        self._last_t = now
        self._power_w = self.spec.idle_w

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<GPUDevice {self.name} {self.spec.model} cap={self._power_limit_w:.0f}W "
            f"{'busy' if self._busy else 'idle'}>"
        )
