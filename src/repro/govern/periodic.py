"""The sim-clock tick loop the online cap governors share.

:class:`PeriodicController` is the base of
:class:`~repro.govern.controller.PowerBudgetGovernor` and of the per-GPU
hill climber :class:`~repro.core.dynamic_runtime.RuntimeCapGovernor`.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.engine import RuntimeSystem
from repro.sim import Simulator
from repro.sim.engine import EventHandle


class PeriodicController:
    """Sim-clock tick loop shared by the online cap governors.

    Subclasses implement :meth:`on_tick`; the base class owns the re-arm
    discipline: ticks ride cancellable event handles, re-arm only while the
    bound runtime has pending tasks, and can be cancelled at the exact
    completion event (via :meth:`stop`) so a pending tick never pads the
    measured makespan — the same rule :class:`repro.faults.recovery.
    RecoveryManager` applies to its probe/backoff events.  :meth:`resume`
    re-arms the chain for a subsequent phase of a multi-graph scenario.
    """

    def __init__(self, runtime: RuntimeSystem, period_s: float) -> None:
        if period_s <= 0:
            raise ValueError(f"tick period must be positive, got {period_s}")
        self.runtime = runtime
        self.sim: Simulator = runtime.sim
        self.period_s = period_s
        self.last_tick_t: float = self.sim.now
        self.n_ticks = 0
        self._tick_handle: Optional[EventHandle] = None

    def start(self) -> None:
        """Arm the first tick; call immediately before ``runtime.run``."""
        self._arm()

    def resume(self) -> None:
        """Re-arm for the next phase (no-op if a tick is already pending)."""
        if self._tick_handle is None:
            self._arm()

    def stop(self) -> None:
        """Cancel the pending tick (safe at the run-completion event)."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None

    def on_tick(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _arm(self) -> None:
        self._tick_handle = self.sim.schedule(self.period_s, self._tick)

    def _tick(self) -> None:
        self._tick_handle = None
        if self.runtime.pending_tasks <= 0:
            return
        self.last_tick_t = self.sim.now
        self.n_ticks += 1
        self.on_tick()
        if self.runtime.pending_tasks > 0:
            self._arm()
