"""Runtime-side fault recovery.

A :class:`RecoveryManager` binds to a :class:`~repro.runtime.engine.
RuntimeSystem` (``runtime.faults = self``) and receives the engine's
in-flight hooks.  From those it maintains a per-worker registry of staged
and running tasks, and implements the countermeasures:

- **retry with capped exponential backoff** — a task aborted by a fault is
  re-submitted after ``min(cap, base * 2**(attempt-1))`` seconds; the delay
  depends only on the attempt count, keeping replays deterministic;
- **re-submission from dead workers** — on a kill, the victim's queued
  tasks are drained from the scheduler and its in-flight task is aborted
  (device state unwound, staged data unpinned *without* write effects) and
  retried on the survivors;
- **quarantine + probe-based re-admission** — excluded workers are probed
  on a doubling interval; once the injector reports them alive they rejoin
  placement and any parked tasks are re-submitted;
- **hang detection** — a watchdog per running task (cancelled on normal
  completion) fires when a kernel overruns its expected duration by
  ``WATCHDOG_FACTOR``; the task is retried elsewhere and the worker
  quarantined;
- **throttle detection → recalibration** — when observed durations drift
  from the model estimate by more than ``DRIFT_RATIO`` for ``DRIFT_HITS``
  consecutive tasks of one architecture, that architecture's performance
  models are re-seeded under the *current* device state
  (:meth:`~repro.runtime.engine.RuntimeSystem.recalibrate_arch`), so
  dm-family schedulers re-plan around the slowdown — and again around the
  recovery once the throttle lifts.

All bookkeeping runs on the simulation clock; pending probes and backoff
events are cancelled the moment the last task completes so recovery can
never stretch the measured makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.obs import spans as _spans
from repro.runtime.graph import Task, TaskGraph
from repro.runtime.worker import WorkerType
from repro.sim.engine import EventHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.obs.decisions import DecisionLog
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.engine import RuntimeSystem
    from repro.runtime.schedulers.base import Scheduler


#: Retry backoff after an aborted task: ``min(cap, base * 2**(attempt-1))``.
BACKOFF_BASE_S = 0.002
BACKOFF_CAP_S = 0.064
#: Hang watchdog: a kernel is hung past ``max(floor, factor × estimate)``.
WATCHDOG_FACTOR = 4.0
WATCHDOG_FLOOR_S = 0.05
#: Recalibrate an architecture after this many consecutive tasks whose
#: observed/estimated duration ratio leaves ``[1/ratio, ratio]``.
DRIFT_RATIO = 1.25
DRIFT_HITS = 3
#: Re-admission probes of an excluded worker: doubling from delay to cap.
PROBE_DELAY_S = 0.02
PROBE_CAP_S = 0.32


@dataclass
class _Inflight:
    """One task currently staged or running on a worker."""

    task: Task
    worker: WorkerType
    phase: str  # "staging" | "running"
    handle: EventHandle
    est: float = 0.0
    watchdog: Optional[EventHandle] = None


class RecoveryManager:
    """Retry, re-submission, quarantine and recalibration policies."""

    def __init__(
        self,
        runtime: "RuntimeSystem",
        injector: Optional["FaultInjector"] = None,
        *,
        metrics: Optional["MetricsRegistry"] = None,
        decisions: Optional["DecisionLog"] = None,
    ) -> None:
        self.runtime = runtime
        self.sim = runtime.sim
        self.tracer = runtime.tracer
        self.injector = injector
        if injector is not None:
            injector.recovery = self
        runtime.faults = self
        self.metrics = metrics
        self.decisions = decisions
        #: Chronological recovery-action records (merged into events.jsonl).
        self.events: list[dict] = []
        #: Optional live-telemetry bus; recovery actions publish ``fault``
        #: events (they share the fault feed in dashboards).
        self.bus: Optional[Any] = None
        self.n_retries = 0
        self.n_requeued = 0
        self.n_parked = 0
        self.n_hangs_detected = 0
        self.n_quarantined = 0
        self.n_readmitted = 0
        self.n_probes_failed = 0
        self.n_recalibrations = 0
        self._inflight: dict[str, _Inflight] = {}
        self._retries: dict[int, int] = {}
        self._parked: list[Task] = []
        self._suspect: dict[str, int] = {}
        # Pending recovery events by the number _later gave them.
        # Insertion-ordered (a dict, not a set) so cancellation order — and
        # with it heap compaction — is identical across processes.
        self._pending: dict[int, EventHandle] = {}
        self._n_later = 0
        self._scheduler: Optional["Scheduler"] = None
        self._n_tasks = 0
        self._n_finished = 0
        #: Co-resident controllers (e.g. the power-budget governor) that want
        #: to ride the recovery lifecycle.  Listeners may implement any of
        #: ``on_run_complete()``, ``on_worker_excluded(worker)``,
        #: ``on_worker_readmitted(worker)``; missing methods are skipped.
        self.listeners: list[Any] = []

    def _notify(self, method: str, *args) -> None:
        for listener in self.listeners:
            fn = getattr(listener, method, None)
            if fn is not None:
                fn(*args)

    # ----------------------------------------------------------- engine hooks

    def on_run_start(self, scheduler: "Scheduler", graph: TaskGraph) -> None:
        self._scheduler = scheduler
        self._n_tasks = len(graph.tasks)
        self._n_finished = 0
        self._inflight.clear()
        self._retries.clear()
        self._parked.clear()
        self._suspect.clear()
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()
        # Multi-phase scenarios: a worker still dead from an earlier run must
        # not receive placements from this run's fresh scheduler (dispatch
        # skips unavailable workers, so its queue would never drain).
        # Re-exclude it and resume probing for re-admission.
        for worker in self.runtime.workers:
            if not worker.available:
                scheduler.exclude_worker(worker)
                self._event("re-exclude", target=worker.name,
                            detail="still dead at run start")
                self._schedule_probe(worker, PROBE_DELAY_S)
        if self.injector is not None and not self.injector.armed:
            self.injector.arm()

    def on_task_staging(
        self, task: Task, worker: WorkerType, handle: EventHandle
    ) -> None:
        self._inflight[worker.name] = _Inflight(task, worker, "staging", handle)

    def on_task_running(
        self, task: Task, worker: WorkerType, handle: EventHandle, duration: float
    ) -> None:
        entry = self._inflight.get(worker.name)
        if entry is None or entry.task is not task:  # pragma: no cover - defensive
            entry = _Inflight(task, worker, "running", handle)
            self._inflight[worker.name] = entry
        entry.phase = "running"
        entry.handle = handle
        entry.est = self.runtime.perf.estimate(task.op, worker.arch)
        timeout = max(WATCHDOG_FLOOR_S, WATCHDOG_FACTOR * duration)
        entry.watchdog = self.sim.schedule(timeout, self._watchdog_fired, entry)

    def on_task_finished(
        self, task: Task, worker: WorkerType, duration: float
    ) -> None:
        entry = self._inflight.pop(worker.name, None)
        if entry is not None and entry.watchdog is not None:
            entry.watchdog.cancel()
            # The handle's args hold the entry: dropping the handle breaks
            # the cycle, so the entry is freed now instead of by the GC.
            entry.watchdog = None
        if entry is not None and entry.est > 0:
            self._note_drift(worker.arch, duration / entry.est)
        self._n_finished += 1
        if self._n_finished >= self._n_tasks:
            self._on_run_complete()

    # --------------------------------------------------------- injector hooks

    def on_worker_killed(self, worker: WorkerType) -> None:
        """The worker died; evacuate its work and start probing."""
        worker.available = False
        scheduler = self._require_scheduler()
        drained = scheduler.exclude_worker(worker)
        self._annotate(f"{worker.name} excluded from placement (died)")
        entry = self._inflight.pop(worker.name, None)
        if entry is not None:
            self._abort(entry, f"{worker.name} died")
        for task in drained:
            self._event("requeue-drained", target=worker.name, task=task.label)
            self._requeue(task)
        self.n_quarantined += 1
        self._count("repro_worker_quarantines_total",
                    "Workers excluded from placement (death or hang).")
        self._notify("on_worker_excluded", worker)
        self._schedule_probe(worker, PROBE_DELAY_S)

    def on_worker_hang(self, worker: WorkerType, extra_s: float) -> None:
        """The worker's current kernel takes ``extra_s`` longer to complete.

        The completion event is pushed back on the clock; if the overrun
        exceeds the watchdog budget the hang is *detected* and handled,
        otherwise the task simply finishes late.
        """
        entry = self._inflight.get(worker.name)
        if entry is None or entry.phase != "running":
            self._event("hang-noop", target=worker.name,
                        detail="no kernel running")
            return
        old = entry.handle
        old.cancel()
        entry.handle = self.sim.schedule_at(old.time + extra_s, old.fn, *old.args)
        self._event("hang-injected", target=worker.name, task=entry.task.label,
                    detail=f"finish pushed to t={old.time + extra_s:.4f}s")

    # ------------------------------------------------------------- internals

    def _require_scheduler(self) -> "Scheduler":
        if self._scheduler is None:  # pragma: no cover - defensive
            raise RuntimeError("no run in progress")
        return self._scheduler

    def _abort(self, entry: _Inflight, reason: str) -> None:
        """Cancel the entry's engine events, unwind state, schedule a retry."""
        entry.handle.cancel()
        if entry.watchdog is not None:
            entry.watchdog.cancel()
            entry.watchdog = None  # see on_task_finished
        self.runtime.abort_task(
            entry.task, entry.worker, running=entry.phase == "running"
        )
        task = entry.task
        attempt = self._retries.get(task.tid, 0) + 1
        self._retries[task.tid] = attempt
        delay = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2.0 ** (attempt - 1))
        self.n_retries += 1
        self._count("repro_fault_retries_total", "Task retries after aborts.")
        self._event("retry", task=task.label,
                    detail=f"attempt {attempt}, backoff {delay * 1e3:.1f}ms ({reason})")
        self._later(delay, self._requeue, task)

    def _requeue(self, task: Task) -> None:
        scheduler = self._require_scheduler()
        if not scheduler.has_eligible(task):
            self._parked.append(task)
            self.n_parked += 1
            self._event("park", task=task.label, detail="no eligible worker")
            return
        self.n_requeued += 1
        self.runtime.resubmit(task)

    def _watchdog_fired(self, entry: _Inflight) -> None:
        worker = entry.worker
        if self._inflight.get(worker.name) is not entry:  # pragma: no cover
            return  # stale: the task completed (watchdog should be cancelled)
        self._inflight.pop(worker.name, None)
        self.n_hangs_detected += 1
        self._count("repro_fault_hangs_detected_total",
                    "Watchdog expirations on running tasks.")
        self._event("hang-detected", target=worker.name, task=entry.task.label)
        scheduler = self._require_scheduler()
        drained = scheduler.exclude_worker(worker)
        worker.available = False
        self._annotate(f"{worker.name} quarantined (watchdog expired)")
        self._abort(entry, f"hang on {worker.name}")
        for task in drained:
            self._event("requeue-drained", target=worker.name, task=task.label)
            self._requeue(task)
        self.n_quarantined += 1
        self._count("repro_worker_quarantines_total",
                    "Workers excluded from placement (death or hang).")
        self._notify("on_worker_excluded", worker)
        self._schedule_probe(worker, PROBE_DELAY_S)

    def _schedule_probe(self, worker: WorkerType, delay: float) -> None:
        self._later(delay, self._probe, worker, delay)

    def _probe(self, worker: WorkerType, delay: float) -> None:
        if self._n_finished >= self._n_tasks:  # pragma: no cover - defensive
            return
        alive = (
            self.injector is None
            or self.injector.is_alive(worker.name, self.sim.now)
        )
        if not alive:
            self.n_probes_failed += 1
            self._event("probe-failed", target=worker.name,
                        detail=f"next probe in {min(PROBE_CAP_S, delay * 2) * 1e3:.0f}ms")
            self._schedule_probe(worker, min(PROBE_CAP_S, delay * 2))
            return
        worker.available = True
        self._require_scheduler().readmit_worker(worker)
        self.n_readmitted += 1
        self._count("repro_worker_readmissions_total",
                    "Workers re-admitted to placement after a probe.")
        self._event("readmit", target=worker.name)
        self._annotate(f"{worker.name} re-admitted to placement")
        self._notify("on_worker_readmitted", worker)
        parked, self._parked = self._parked, []
        for task in parked:
            self._event("unpark", task=task.label)
            self._requeue(task)
        self.runtime.wake()

    def _note_drift(self, arch: str, ratio: float) -> None:
        if ratio > DRIFT_RATIO or ratio < 1.0 / DRIFT_RATIO:
            hits = self._suspect.get(arch, 0) + 1
            if hits >= DRIFT_HITS:
                self._suspect[arch] = 0
                n = self.runtime.recalibrate_arch(arch)
                self.n_recalibrations += 1
                self._count("repro_fault_recalibrations_total",
                            "Per-arch perf-model recalibrations on drift.")
                self._event("recalibrate", target=arch,
                            detail=f"{n} kernels re-seeded (ratio {ratio:.2f})")
                self._annotate(
                    f"perf models for {arch} recalibrated (duration drift)"
                )
            else:
                self._suspect[arch] = hits
        else:
            self._suspect[arch] = 0

    def _on_run_complete(self) -> None:
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()
        if self.injector is not None:
            self.injector.disarm()
        self._notify("on_run_complete")

    def _later(self, delay: float, fn, *args) -> None:
        """Schedule a cancellable recovery event that unregisters on fire.

        The event finds itself in ``_pending`` by number: a callback
        holding its own handle would be a cycle only the GC frees.
        """
        number = self._n_later
        self._n_later += 1

        def fire() -> None:
            self._pending.pop(number, None)
            fn(*args)

        self._pending[number] = self.sim.schedule(delay, fire)

    def _event(self, kind: str, target: str = "", task: str = "",
               detail: str = "") -> None:
        now = self.sim.now
        rec: dict = {"t": now, "kind": kind}
        if target:
            rec["target"] = target
        if task:
            rec["task"] = task
        if detail:
            rec["detail"] = detail
        self.events.append(rec)
        label = ": ".join(x for x in (target or task, detail) if x)
        self.tracer.point("faults", kind, now, label)
        if self.bus is not None:
            self.bus.publish({"type": "fault", **rec})
        _spans.event("fault.recover", kind=kind, target=target or task)

    def _annotate(self, text: str) -> None:
        if self.decisions is not None:
            self.decisions.annotate(self.sim.now, text)

    def _count(self, name: str, help_text: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name, help_text).inc()

    def stats(self) -> dict:
        """Aggregate counters for the chaos report."""
        return {
            "retries": self.n_retries,
            "requeued": self.n_requeued,
            "parked": self.n_parked,
            "hangs_detected": self.n_hangs_detected,
            "quarantined": self.n_quarantined,
            "readmitted": self.n_readmitted,
            "probes_failed": self.n_probes_failed,
            "recalibrations": self.n_recalibrations,
        }
