"""The fault-resilient online power-budget governor.

:class:`PowerBudgetGovernor` closes the loop the paper leaves open: instead
of fixing one static L/B/H configuration up front, it re-solves the global
watt-budget split across the node's GPUs *while the run executes*, on the
simulation clock, from live telemetry:

- **sense** — it subscribes to the :class:`~repro.obs.stream.TelemetryBus`
  and tracks per-device power samples (for staleness), throttle-drift
  anomalies (to stop allocating watts a thermally-limited device cannot
  draw) and budget-violation anomalies (its own safe-mode tripwire);
- **decide** — each tick it prices the budget across the healthy devices
  with a pluggable :data:`~repro.cluster.budget.ALLOCATORS` policy over an
  analytic farm view (one :class:`~repro.cluster.farm.FarmGPU` shadow per
  live device, rebuilt per workload phase), then applies a hysteresis
  deadband and a per-tick rate limit so the caps move deliberately;
- **actuate** — every cap change goes through the verify-after-set
  :func:`~repro.faults.nvml_guard.set_power_limit_verified` path; the
  read-back value, not the request, becomes the device's applied cap.

The robustness core is the degradation ladder, engaged strictly in order
of blast radius:

1. *meter dropout* → a device whose power samples go stale is **held** at
   its last-known-good cap and excluded from reallocation until samples
   resume;
2. *repeated actuation failure* → after :data:`MAX_FAILURES` consecutive NVML
   errors (with capped-exponential backoff between attempts) the device is
   **quarantined** at its last verified cap and its budget share is
   re-allocated to the healthy GPUs;
3. *controller stall, budget violation, infeasible split, or a tick
   exception* → **safe mode**: the governor applies the static-best
   CapConfig (decreases first, so the budget holds even mid-transition)
   and retires for the rest of the run.

Every transition is recorded three ways: a ``budget-move`` record in
:attr:`PowerBudgetGovernor.moves` (the ``govern.json`` ledger), an
annotation in the decision log, and a ``budget-move`` event on the bus.
All state lives on the sim clock and every decision derives from sim-side
inputs, so a given (seed, plan) reproduces the ledger byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import nvml
from repro.cluster.budget import get_allocator
from repro.cluster.farm import FarmGPU
from repro.faults.nvml_guard import set_power_limit_verified
from repro.govern.periodic import PeriodicController
from repro.hardware.node import Node
from repro.kernels.gemm import GemmKernel
from repro.obs.stream import BUDGET_TOLERANCE_W
from repro.runtime.engine import RuntimeSystem
from repro.runtime.worker import GPUWorker
from repro.sim.engine import EventHandle

#: Device states on the degradation ladder.
ACTIVE = "active"
HELD = "held"
QUARANTINED = "quarantined"


# Control-loop constants (see ``docs/governor.md``).
#: Re-solve cadence on the sim clock.
PERIOD_S = 0.02
#: Deadband: proposed moves smaller than this are not actuated.
HYSTERESIS_W = 2.0
#: Per-tick rate limit on any one device's cap.
MAX_STEP_W = 40.0
#: A device whose last power sample is older than this is held.
STALENESS_S = 0.03
#: Verified-set retries per actuation attempt.
CAP_RETRIES = 2
#: Capped exponential backoff between failed actuations.
BACKOFF_BASE_S = 0.01
BACKOFF_CAP_S = 0.16
#: Consecutive actuation failures before quarantine.
MAX_FAILURES = 3
#: Stall watchdog fires when no tick ran for this many periods.
STALL_FACTOR = 4.0
#: Throttle ceiling = measured draw × this headroom.
THROTTLE_HEADROOM = 1.1
#: Throttle ceiling clears when draw recovers to this × ceiling.
THROTTLE_CLEAR_RATIO = 0.95
#: A silent-clamp ceiling is re-probed after this long.
CLAMP_REPROBE_S = 0.2


@dataclass
class _DeviceState:
    """Governor-side view of one GPU."""

    index: int
    name: str
    applied_w: float
    cap_min_w: float
    cap_max_w: float
    state: str = ACTIVE
    last_power_t: float = 0.0
    last_power_w: float = 0.0
    failures: int = 0
    backoff_until: float = -math.inf
    #: Allocation ceiling below cap_max (throttle or silent clamp), with
    #: its origin and — for clamps — its re-probe expiry.
    ceil_w: float = math.inf
    ceil_kind: str = ""
    ceil_until: float = math.inf
    worker_dead: bool = False


class _CappedGPU:
    """A farm GPU whose upper cap is clipped to the governor's ceiling."""

    __slots__ = ("_gpu", "cap_range")

    def __init__(self, gpu: FarmGPU, hi_w: float) -> None:
        self._gpu = gpu
        lo, hi = gpu.cap_range
        self.cap_range = (lo, min(hi, max(lo, hi_w)))

    def throughput(self, cap_w: float) -> float:
        return self._gpu.throughput(cap_w)

    def power(self, cap_w: float) -> float:
        return self._gpu.power(cap_w)

    def efficiency(self, cap_w: float) -> float:
        return self._gpu.efficiency(cap_w)


class _FarmView:
    """Allocator input: the active devices under their current ceilings."""

    def __init__(self, gpus: list[_CappedGPU]) -> None:
        self.gpus = gpus

    def min_budget(self) -> float:
        return sum(g.cap_range[0] for g in self.gpus)


class PowerBudgetGovernor(PeriodicController):
    """Closed-loop watt-budget controller over a running RuntimeSystem.

    Also a bus subscriber (``bus.subscribe(governor)``) and a recovery
    listener (``recovery.listeners.append(governor)``): power samples and
    anomalies flow in through :meth:`__call__`, worker death/readmission
    through the ``on_worker_*`` hooks, and run completion cancels the
    pending tick so the controller never pads the measured makespan.
    """

    def __init__(
        self,
        node: Node,
        runtime: RuntimeSystem,
        budget_w: float,
        static_caps: Sequence[float],
        allocator: str,
        metrics=None,
        decisions=None,
    ) -> None:
        super().__init__(runtime, PERIOD_S)
        self.node = node
        self.budget_w = float(budget_w)
        self.static_caps = [float(w) for w in static_caps]
        self.allocate = get_allocator(allocator)
        self.metrics = metrics
        self.decisions = decisions
        self.bus = None
        min_w = sum(g.spec.cap_min_w for g in node.gpus)
        if not math.isfinite(self.budget_w):
            raise ValueError(f"budget must be finite, got {budget_w!r}")
        if self.budget_w < min_w - 1e-9:
            raise ValueError(
                f"budget {self.budget_w:.0f} W below the node's minimum "
                f"{min_w:.0f} W"
            )
        if len(self.static_caps) != len(node.gpus):
            raise ValueError("one static cap per GPU required")
        nvml.nvmlInit(node)
        self._handles = [
            nvml.nvmlDeviceGetHandleByIndex(i) for i in range(len(node.gpus))
        ]
        self.devices = [
            _DeviceState(
                index=g.index,
                name=f"gpu{g.index}",
                applied_w=g.power_limit_w,
                cap_min_w=g.spec.cap_min_w,
                cap_max_w=g.spec.cap_max_w,
            )
            for g in node.gpus
        ]
        self._farm_gpus: list[FarmGPU] = []
        self.workload: Optional[tuple[str, int]] = None
        #: Chronological budget-move ledger (the govern.json artefact).
        self.moves: list[dict] = []
        # Allocation memo: the split depends only on (workload, active set,
        # ceilings, residual); most ticks change none of them, and the
        # water-fill behind get_allocator is far too expensive per tick.
        self._alloc_key: Optional[tuple] = None
        self._alloc_targets: list[float] = []
        self.safe_mode = False
        self.safe_mode_reason = ""
        self.n_quarantined = 0
        self.max_total_cap_w = sum(d.applied_w for d in self.devices)
        self._stall_handle: Optional[EventHandle] = None
        self._worker_device = {
            w.name: w.gpu.index
            for w in runtime.workers
            if isinstance(w, GPUWorker)
        }
        # Last-published per-device cap gauge values; ticks far outnumber
        # cap moves, so gauges update only on change.
        self._gauged: dict[str, float] = {}
        self._gauge("repro_govern_budget_w",
                    "Global watt budget governed.", self.budget_w)

    # -------------------------------------------------------------- workload

    def set_workload(self, precision: str, nb: int) -> None:
        """Rebuild the analytic farm view for the current workload phase.

        The shadow devices use the tile-GEMM proxy (the paper's own sweep
        kernel), so the governor's continuous sweet spots are derived the
        same way the static ``B`` states are.
        """
        self.workload = (precision, nb)
        kernel = GemmKernel.square(nb, precision)
        self._farm_gpus = [
            FarmGPU(g.spec.model, kernel) for g in self.node.gpus
        ]

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        if not self._farm_gpus:
            raise RuntimeError("call set_workload() before start()")
        super().start()
        self._arm_stall()

    def resume(self) -> None:
        if self.safe_mode:
            return
        super().resume()
        if self._stall_handle is None:
            self._arm_stall()

    def stop(self) -> None:
        super().stop()
        if self._stall_handle is not None:
            self._stall_handle.cancel()
            self._stall_handle = None

    def on_run_complete(self) -> None:
        """Recovery-listener hook: fires inside the sim timeline at the
        last task completion, so cancelling here keeps pending governor
        events from padding the measured makespan."""
        self.stop()

    # -------------------------------------------------------- bus subscriber

    def __call__(self, event: dict) -> None:
        etype = event["type"]
        if etype == "power":
            t = event["t"]
            for dev in self.devices:
                w = event.get(dev.name)
                if w is not None:
                    dev.last_power_t = t
                    dev.last_power_w = w
        elif etype == "anomaly":
            self._on_anomaly(event)

    def on_intervals(self, items: list) -> None:
        """Tuple fast lane: task intervals carry nothing the governor
        reads, so batches are dropped without dict materialization."""

    def _on_anomaly(self, event: dict) -> None:
        rule = event.get("rule")
        if rule == "budget-violation" and not self.safe_mode:
            self._enter_safe_mode("budget-violation anomaly")
            return
        if rule != "throttle-drift":
            return
        index = self._worker_device.get(event.get("target", ""))
        if index is None:
            return
        dev = self.devices[index]
        if dev.last_power_w <= 0.0 or dev.state == QUARANTINED:
            return
        ceil = max(dev.cap_min_w,
                   dev.last_power_w * THROTTLE_HEADROOM)
        if ceil < min(dev.ceil_w, dev.cap_max_w) - 1e-9:
            dev.ceil_w = ceil
            dev.ceil_kind = "throttle"
            dev.ceil_until = math.inf
            self._move("throttle-limit", dev,
                       detail=f"ceiling {ceil:.1f}W "
                              f"(drawing {dev.last_power_w:.1f}W)")

    # ------------------------------------------------------ recovery listener

    def on_worker_excluded(self, worker) -> None:
        """A worker died or hung: reclaim its device's watts for the
        survivors (the device idles near its floor anyway)."""
        index = self._worker_device.get(worker.name)
        if index is None or self.safe_mode:
            return
        dev = self.devices[index]
        if dev.worker_dead:
            return
        dev.worker_dead = True
        old = dev.applied_w
        if dev.state != QUARANTINED and old > dev.cap_min_w + 1e-9:
            self._actuate(dev, dev.cap_min_w, kind="reclaim")
        else:
            self._move("reclaim", dev, from_w=old, to_w=dev.applied_w,
                       detail="worker excluded")

    def on_worker_readmitted(self, worker) -> None:
        index = self._worker_device.get(worker.name)
        if index is None:
            return
        dev = self.devices[index]
        if not dev.worker_dead:
            return
        dev.worker_dead = False
        self._move("restore", dev, from_w=dev.applied_w, to_w=dev.applied_w,
                   detail="worker readmitted; reallocating next tick")

    # ------------------------------------------------------------- main loop

    def on_tick(self) -> None:
        if self.safe_mode:
            return
        try:
            self._govern()
        except Exception as exc:  # the ladder's last rung, never a crash
            self._enter_safe_mode(f"tick raised {type(exc).__name__}: {exc}")

    def _govern(self) -> None:
        now = self.sim.now
        # The bus batches bulk events (power samples included) for the
        # attached-overhead budget; a controller deciding on them must see
        # them first, or staleness tracking false-positives on the batch lag.
        if self.bus is not None:
            self.bus.drain()
        self._refresh_states(now)
        active = [
            d for d in self.devices
            if d.state == ACTIVE and not d.worker_dead
        ]
        if active:
            fixed = sum(d.applied_w for d in self.devices if d not in active)
            residual = self.budget_w - fixed
            view = _FarmView([
                _CappedGPU(self._farm_gpus[d.index], d.ceil_w) for d in active
            ])
            if residual < view.min_budget() - 1e-6:
                self._enter_safe_mode(
                    f"residual budget {residual:.1f}W below the active "
                    f"devices' floor {view.min_budget():.1f}W"
                )
                return
            key = (
                self.workload,
                tuple(d.index for d in active),
                tuple(round(min(d.ceil_w, d.cap_max_w), 6) for d in active),
                round(residual, 6),
            )
            if key == self._alloc_key:
                targets = self._alloc_targets
            else:
                targets = self.allocate(view, residual)
                self._alloc_key = key
                self._alloc_targets = targets
            proposed = self._rate_limit(active, targets)
            self._enforce_budget(active, proposed, fixed)
            moves = [
                (dev, new_w) for dev, new_w in zip(active, proposed)
                if abs(new_w - dev.applied_w) > 1e-9
                and now >= dev.backoff_until
            ]
            # Decreases land first: if one fails (wedged driver) the freed
            # watts never existed, and the increases below must not spend
            # them — the budget invariant holds even mid-transition.
            for dev, new_w in moves:
                if new_w < dev.applied_w:
                    self._actuate(dev, new_w, kind="set")
            for dev, new_w in moves:
                if new_w > dev.applied_w:
                    headroom = self.budget_w - sum(
                        d.applied_w for d in self.devices
                    )
                    allowed = min(new_w, dev.applied_w + headroom)
                    if allowed - dev.applied_w > 1e-9:
                        self._actuate(dev, allowed, kind="set")
        total = sum(d.applied_w for d in self.devices)
        if total > self.max_total_cap_w:
            self.max_total_cap_w = total
        if total > self.budget_w + BUDGET_TOLERANCE_W:
            self._enter_safe_mode(
                f"caps total {total:.1f}W exceed budget {self.budget_w:.1f}W"
            )
            return
        if self.metrics is not None:
            for dev in self.devices:
                if self._gauged.get(dev.name) != dev.applied_w:
                    self._gauged[dev.name] = dev.applied_w
                    self._gauge("repro_govern_cap_w",
                                "Governed per-device cap.",
                                dev.applied_w, labels={"device": dev.name})

    def _refresh_states(self, now: float) -> None:
        for dev in self.devices:
            if dev.state == QUARANTINED:
                continue
            stale = now - dev.last_power_t > STALENESS_S
            if dev.state == ACTIVE and stale:
                dev.state = HELD
                self._move("hold", dev, from_w=dev.applied_w,
                           to_w=dev.applied_w,
                           detail=f"power samples stale "
                                  f"{now - dev.last_power_t:.3f}s")
            elif dev.state == HELD and not stale:
                dev.state = ACTIVE
                self._move("resume", dev, from_w=dev.applied_w,
                           to_w=dev.applied_w, detail="power samples resumed")
            if dev.ceil_kind == "throttle" and (
                dev.last_power_w >= THROTTLE_CLEAR_RATIO * dev.ceil_w
            ):
                self._clear_ceiling(dev, "draw recovered")
            elif dev.ceil_kind == "clamp" and now >= dev.ceil_until:
                self._clear_ceiling(dev, "re-probing past clamp")

    def _clear_ceiling(self, dev: _DeviceState, why: str) -> None:
        self._move("ceiling-clear", dev,
                   detail=f"{dev.ceil_kind} ceiling {dev.ceil_w:.1f}W "
                          f"lifted ({why})")
        dev.ceil_w = math.inf
        dev.ceil_kind = ""
        dev.ceil_until = math.inf

    def _rate_limit(
        self, active: list[_DeviceState], targets: list[float]
    ) -> list[float]:
        out = []
        for dev, target in zip(active, targets):
            delta = target - dev.applied_w
            if abs(delta) < HYSTERESIS_W:
                out.append(dev.applied_w)
                continue
            step = max(-MAX_STEP_W, min(MAX_STEP_W, delta))
            new_w = dev.applied_w + step
            hi = min(dev.cap_max_w, dev.ceil_w)
            out.append(min(hi, max(dev.cap_min_w, new_w)))
        return out

    def _enforce_budget(
        self, active: list[_DeviceState], proposed: list[float], fixed: float
    ) -> None:
        """Shave proposed *increases* (in device order) until the whole
        node fits the budget — rate limiting can lag decreases behind
        increases, and the invariant must hold at every instant."""
        excess = fixed + sum(proposed) - self.budget_w
        if excess <= 1e-9:
            return
        for i, dev in enumerate(active):
            gain = proposed[i] - dev.applied_w
            if gain > 0:
                cut = min(excess, gain)
                proposed[i] -= cut
                excess -= cut
                if excess <= 1e-9:
                    return
        for i, dev in enumerate(active):
            room = proposed[i] - dev.cap_min_w
            if room > 0:
                cut = min(excess, room)
                proposed[i] -= cut
                excess -= cut
                if excess <= 1e-9:
                    return

    # -------------------------------------------------------------- actuation

    def _actuate(self, dev: _DeviceState, new_w: float, kind: str) -> None:
        old = dev.applied_w
        limit_mw = int(round(new_w * 1000))
        try:
            applied_mw, attempts = set_power_limit_verified(
                self._handles[dev.index], limit_mw,
                retries=CAP_RETRIES, strict=False,
            )
        except nvml.NVMLError as exc:
            dev.failures += 1
            delay = min(BACKOFF_CAP_S,
                        BACKOFF_BASE_S * 2.0 ** (dev.failures - 1))
            dev.backoff_until = self.sim.now + delay
            self._move("cap-fail", dev, from_w=old, to_w=old,
                       detail=f"attempt {dev.failures} failed ({exc}); "
                              f"backoff {delay * 1e3:.0f}ms")
            if dev.failures >= MAX_FAILURES:
                self._quarantine(dev)
            return
        dev.failures = 0
        applied_w = applied_mw / 1000.0
        clamped = applied_mw != limit_mw
        if clamped and applied_w < new_w:
            # The driver silently enforces a lower limit: stop asking for
            # more until the re-probe window, or the loop churns every tick.
            dev.ceil_w = applied_w
            dev.ceil_kind = "clamp"
            dev.ceil_until = self.sim.now + CLAMP_REPROBE_S
        if abs(applied_w - old) > 1e-9:
            dev.applied_w = applied_w
            self._move(kind, dev, from_w=old, to_w=applied_w,
                       attempts=attempts,
                       detail="silently clamped" if clamped else "")
        elif clamped:
            self._move("clamp-limit", dev, from_w=old, to_w=applied_w,
                       detail=f"requested {new_w:.1f}W, driver held "
                              f"{applied_w:.1f}W")

    def _quarantine(self, dev: _DeviceState) -> None:
        dev.state = QUARANTINED
        self.n_quarantined += 1
        self._count("repro_govern_quarantines_total",
                    "Devices quarantined after repeated actuation failure.")
        self._move("quarantine", dev, from_w=dev.applied_w,
                   to_w=dev.applied_w,
                   detail=f"{dev.failures} consecutive actuation failures; "
                          f"held at verified {dev.applied_w:.1f}W")

    # -------------------------------------------------------------- safe mode

    def _enter_safe_mode(self, reason: str) -> None:
        if self.safe_mode:
            return
        self.safe_mode = True
        self.safe_mode_reason = reason
        # Decreases first: the budget invariant must hold even mid-fallback.
        order = sorted(
            self.devices,
            key=lambda d: (self.static_caps[d.index] > d.applied_w, d.index),
        )
        for dev in order:
            target = self.static_caps[dev.index]
            if abs(target - dev.applied_w) <= 1e-9:
                continue
            try:
                applied_mw, _ = set_power_limit_verified(
                    self._handles[dev.index], int(round(target * 1000)),
                    retries=CAP_RETRIES, strict=False,
                )
                dev.applied_w = applied_mw / 1000.0
            except nvml.NVMLError:
                pass  # best effort: the device keeps its last verified cap
        total = sum(d.applied_w for d in self.devices)
        if total > self.max_total_cap_w:
            self.max_total_cap_w = total
        self._move("safe-mode", None, detail=reason)
        self._gauge("repro_govern_safe_mode",
                    "1 while the governor is in static-fallback safe mode.",
                    1.0)
        self.stop()

    # ------------------------------------------------------------ bookkeeping

    def caps(self) -> dict[str, float]:
        return {d.name: round(d.applied_w, 6) for d in self.devices}

    def stats(self) -> dict:
        """Aggregate counters for the govern report."""
        kinds: dict[str, int] = {}
        for rec in self.moves:
            kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
        return {
            "ticks": self.n_ticks,
            "moves": len(self.moves),
            "moves_by_kind": dict(sorted(kinds.items())),
            "quarantined": self.n_quarantined,
            "safe_mode": self.safe_mode,
            "safe_mode_reason": self.safe_mode_reason,
            "max_total_cap_w": round(self.max_total_cap_w, 6),
        }

    def _arm_stall(self) -> None:
        delay = STALL_FACTOR * self.period_s
        self._stall_handle = self.sim.schedule(delay, self._stall_check)

    def _stall_check(self) -> None:
        self._stall_handle = None
        if self.safe_mode or self.runtime.pending_tasks <= 0:
            return
        gap = self.sim.now - self.last_tick_t
        if gap > STALL_FACTOR * self.period_s + 1e-9:
            self._enter_safe_mode(
                f"controller stalled: no tick for {gap:.3f}s"
            )
            return
        self._arm_stall()

    def _move(self, kind: str, dev: Optional[_DeviceState],
              from_w: Optional[float] = None, to_w: Optional[float] = None,
              detail: str = "", **extra) -> None:
        now = self.sim.now
        rec: dict = {"t": round(now, 9), "kind": kind}
        if dev is not None:
            rec["device"] = dev.name
        if from_w is not None:
            rec["from_w"] = round(from_w, 6)
        if to_w is not None:
            rec["to_w"] = round(to_w, 6)
        if detail:
            rec["detail"] = detail
        rec.update(extra)
        self.moves.append(rec)
        self._count("repro_govern_moves_total",
                    "Budget-move transitions by kind.", labels={"kind": kind})
        if self.decisions is not None:
            target = f" {dev.name}" if dev is not None else ""
            self.decisions.annotate(
                now, f"budget-move {kind}{target}"
                     + (f": {detail}" if detail else ""),
                **{k: v for k, v in rec.items() if k not in ("t",)},
            )
        if self.bus is not None:
            self.bus.publish({
                "type": "budget-move", **rec,
                "budget_w": self.budget_w, "caps": self.caps(),
            })

    def _count(self, name: str, help_text: str, labels=None) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help_text, labels=labels).inc()

    def _gauge(self, name: str, help_text: str, value: float,
               labels=None) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name, help=help_text, labels=labels).set(value)
