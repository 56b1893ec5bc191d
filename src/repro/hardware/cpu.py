"""Stateful CPU package: RAPL-style capping, per-core occupancy, energy.

Package power is ``idle + n_spin * SPIN_FACTOR * per_core * f**3 +
n_busy * per_core * f**3`` where ``f`` is the all-core frequency the governor
sustains under the current RAPL cap.

*Spinning* models StarPU's busy-wait worker loops: every worker thread
(including the per-GPU driver cores) polls actively while it has no task, so
CPU packages draw a large, constant share of node power even in GPU-only
phases — the effect the paper's Fig. 5 measures and its Fig. 6 attacks with
CPU power capping.  A spinning core draws ``SPIN_FACTOR`` of a working core
(polling loops do not exercise the vector units).
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.dvfs import cpu_freq_at_cap
from repro.hardware.gpu import Clock, PowerLimitError
from repro.hardware.specs import CPUSpec
from repro.sim.tracing import Tracer


class CoreAccountingError(RuntimeError):
    """Raised when begin/end core bookkeeping goes out of balance."""


#: Power of a busy-wait (polling) core relative to a working core.  Polling
#: loops keep the core out of sleep states but off the vector units.
SPIN_FACTOR = 0.4


class CPUPackage:
    """One simulated CPU socket with RAPL-style power capping."""

    def __init__(
        self,
        spec: CPUSpec,
        index: int,
        clock: Clock,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.spec = spec
        self.index = index
        self.name = f"cpu{index}"
        self._clock = clock
        self._tracer = tracer
        self._power_limit_w = spec.tdp_w
        self._freq_scale = 1.0
        # Dynamic power of one working core at the current frequency; only
        # changes with the cap, but consulted on every begin/end_core.
        self._dyn_w = spec.per_core_w
        # Kernel-model cache (tile-op ground-truth durations), valid
        # for the current cap only: set_power_limit clears it.
        self.kernel_time_cache: dict = {}
        self._n_busy = 0
        self._n_spinning = 0
        self._energy_j = 0.0
        self._last_t = clock.now
        self._power_w = spec.idle_w

    # ------------------------------------------------------------ accounting

    def _advance(self) -> None:
        now = self._clock.now
        if now < self._last_t:
            raise RuntimeError("clock moved backwards")
        self._energy_j += self._power_w * (now - self._last_t)
        self._last_t = now

    def _recompute_power(self) -> None:
        now = self._clock.now
        if now < self._last_t:
            raise RuntimeError("clock moved backwards")
        self._energy_j += self._power_w * (now - self._last_t)
        self._last_t = now
        dyn = self._dyn_w
        n_busy = self._n_busy
        spinning = self._n_spinning - n_busy
        if spinning < 0:
            spinning = 0
        self._power_w = (
            self.spec.idle_w + n_busy * dyn + spinning * SPIN_FACTOR * dyn
        )

    def energy_j(self) -> float:
        """Total package energy since construction (Joules) — RAPL counter."""
        self._advance()
        return self._energy_j

    def reset_energy(self) -> None:
        self._advance()
        self._energy_j = 0.0

    @property
    def power_w(self) -> float:
        return self._power_w

    @property
    def n_busy(self) -> int:
        return self._n_busy

    @property
    def n_spinning(self) -> int:
        return self._n_spinning

    def set_spinning(self, n_cores: int) -> None:
        """Declare how many worker threads busy-wait on this package.

        The runtime engine pins one spinning thread per worker core for the
        duration of a run.  Busy cores are not double-counted.
        """
        if not 0 <= n_cores <= self.spec.n_cores:
            raise CoreAccountingError(
                f"{self.name}: cannot spin {n_cores} of {self.spec.n_cores} cores"
            )
        self._n_spinning = n_cores
        self._recompute_power()

    # ---------------------------------------------------------- power limits

    @property
    def power_limit_w(self) -> float:
        return self._power_limit_w

    @property
    def freq_scale(self) -> float:
        """All-core frequency scale the governor sustains under the cap."""
        return self._freq_scale

    def set_power_limit(self, watts: float) -> None:
        """Apply a RAPL package cap; rejects out-of-range or unsupported."""
        if not self.spec.supports_capping:
            raise PowerLimitError(f"{self.spec.model}: power capping unsupported")
        if not self.spec.cap_min_w <= watts <= self.spec.cap_max_w:
            raise PowerLimitError(
                f"{self.spec.model}: cap {watts} W outside "
                f"[{self.spec.cap_min_w}, {self.spec.cap_max_w}] W"
            )
        self._power_limit_w = float(watts)
        self._freq_scale = cpu_freq_at_cap(
            watts, self.spec.idle_w, self.spec.tdp_w, self.spec.f_min
        )
        self._dyn_w = self.spec.per_core_w * self._freq_scale**3
        self.kernel_time_cache.clear()
        self._recompute_power()
        if self._tracer is not None:
            self._tracer.point(self.name, "cap", self._clock.now, f"{watts:.0f}W")

    def power_limit_fraction(self) -> float:
        return self._power_limit_w / self.spec.tdp_w

    # ------------------------------------------------------------- occupancy

    def begin_core(self) -> None:
        """A core becomes busy (task execution or GPU polling)."""
        if self._n_busy >= self.spec.n_cores:
            raise CoreAccountingError(
                f"{self.name}: all {self.spec.n_cores} cores already busy"
            )
        # _recompute_power, inlined: this runs twice per simulated task.
        now = self._clock.now
        last = self._last_t
        if now < last:
            raise RuntimeError("clock moved backwards")
        self._energy_j += self._power_w * (now - last)
        self._last_t = now
        n_busy = self._n_busy = self._n_busy + 1
        dyn = self._dyn_w
        spinning = self._n_spinning - n_busy
        if spinning < 0:
            spinning = 0
        self._power_w = self.spec.idle_w + n_busy * dyn + spinning * SPIN_FACTOR * dyn

    def end_core(self) -> None:
        if self._n_busy <= 0:
            raise CoreAccountingError(f"{self.name}: no busy core to release")
        # _recompute_power, inlined (see begin_core).
        now = self._clock.now
        last = self._last_t
        if now < last:
            raise RuntimeError("clock moved backwards")
        self._energy_j += self._power_w * (now - last)
        self._last_t = now
        n_busy = self._n_busy = self._n_busy - 1
        dyn = self._dyn_w
        spinning = self._n_spinning - n_busy
        if spinning < 0:
            spinning = 0
        self._power_w = self.spec.idle_w + n_busy * dyn + spinning * SPIN_FACTOR * dyn

    def core_gflops(self, precision: str) -> float:
        """Per-core effective GEMM rate under the current cap (Gflop/s)."""
        return self.spec.core_gflops[precision] * self._freq_scale

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CPUPackage {self.name} {self.spec.model} cap={self._power_limit_w:.0f}W "
            f"busy={self._n_busy}/{self.spec.n_cores}>"
        )
