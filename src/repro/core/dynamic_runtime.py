"""EXTENSION: dynamic per-GPU capping *during* a task-based run.

The paper's future work asks about "dynamic power capping and its
interaction with scheduling decisions".  :class:`RuntimeCapGovernor` ticks
on the simulation clock while the runtime executes a graph: every period it
measures each GPU's achieved efficiency over the window (flops retired by
its worker / energy drawn by the device) and hill-climbs that GPU's cap
independently.  The scheduler keeps up because the runtime's EWMA history
model re-estimates kernel durations from recent samples — use
``RuntimeSystem(..., ewma_alpha=0.3)`` together with this governor.

Start the governor *before* ``runtime.run``; it re-arms itself on the event
heap until the run drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hardware.node import Node
from repro.runtime.engine import RuntimeSystem
from repro.runtime.worker import GPUWorker
from repro.sim import Simulator
from repro.sim.engine import EventHandle

#: Governor tick period (simulated seconds).
PERIOD_S = 0.4
#: Relative efficiency loss below the best seen that sends a GPU back to
#: its best cap and reverses its walk.
DEGRADE_TOLERANCE = 0.03
#: EWMA weight of the newest efficiency sample.
SMOOTHING = 0.5


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


@dataclass
class _GPUState:
    direction: float = -1.0
    smooth_eff: float | None = None
    best_eff: float = 0.0
    best_cap: float = 0.0
    last_flops: float = 0.0
    last_energy: float = 0.0


class RuntimeCapGovernor(PeriodicController):
    """Per-GPU online hill-climbing governor over a running RuntimeSystem."""

    def __init__(
        self,
        node: Node,
        runtime: RuntimeSystem,
        step_w: float = 20.0,
    ) -> None:
        super().__init__(runtime, PERIOD_S)
        self.node = node
        self.step_w = step_w
        self.history: list[tuple[float, list[float]]] = []
        self._sim: Simulator = runtime.sim
        self._gpu_workers = {
            w.gpu.index: w for w in runtime.workers if isinstance(w, GPUWorker)
        }
        self._states: dict[int, _GPUState] = {
            gpu.index: _GPUState() for gpu in node.gpus
        }

    def start(self) -> None:
        """Arm the first tick; call immediately before ``runtime.run``."""
        for gpu in self.node.gpus:
            state = self._states[gpu.index]
            state.last_flops = self._gpu_workers[gpu.index].flops_done
            state.last_energy = gpu.energy_j()
            state.smooth_eff = None
            state.best_cap = gpu.power_limit_w
        super().start()

    def on_tick(self) -> None:
        caps = []
        for gpu in self.node.gpus:
            state = self._states[gpu.index]
            flops = self._gpu_workers[gpu.index].flops_done
            energy = gpu.energy_j()
            d_flops = flops - state.last_flops
            d_energy = energy - state.last_energy
            state.last_flops, state.last_energy = flops, energy
            if d_flops > 0 and d_energy > 0:
                raw = d_flops / d_energy
                eff = (
                    raw if state.smooth_eff is None
                    else (1 - SMOOTHING) * state.smooth_eff + SMOOTHING * raw
                )
                state.smooth_eff = eff
                if eff > state.best_eff:
                    state.best_eff = eff
                    state.best_cap = gpu.power_limit_w
                spec = gpu.spec
                if eff < state.best_eff * (1.0 - DEGRADE_TOLERANCE):
                    # Fell clearly below the best seen: jump back there and
                    # probe the other direction next.
                    state.direction = -state.direction
                    cap = state.best_cap
                else:
                    cap = gpu.power_limit_w + state.direction * self.step_w
                cap = min(spec.cap_max_w, max(spec.cap_min_w, cap))
                if cap != gpu.power_limit_w:
                    gpu.set_power_limit(cap)
            caps.append(gpu.power_limit_w)
        self.history.append((self._sim.now, caps))

    def final_caps(self) -> list[float]:
        return [gpu.power_limit_w for gpu in self.node.gpus]
