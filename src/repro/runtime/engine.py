"""The runtime execution engine.

Event-driven execution of a :class:`~repro.runtime.graph.TaskGraph` on a
simulated :class:`~repro.hardware.node.Node`:

1. performance models are calibrated *under the currently applied power
   caps* (StarPU recalibrates after every cap change — the paper's key
   mechanism);
2. ready tasks are pushed to the scheduler; idle workers pop;
3. a GPU task first stages its data (MSI fetches over the PCIe links), with
   the driver core busy-polling, then runs the kernel at the cap-limited
   boost clock; a CPU task runs on one core at the package's capped
   frequency;
4. completions release data (write invalidations), feed the history model,
   decrement successors and wake idle workers.

Energy is integrated continuously by the devices themselves, so a
:class:`RunResult` carries the exact per-device Joules of the run, including
idle draw — the same quantity the paper's NVML/PAPI protocol measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.hardware.node import Node
from repro.obs import spans as _spans
from repro.obs.decisions import DecisionLog
from repro.obs.metrics import MetricsRegistry
from repro.runtime.data import DataManager
from repro.runtime.graph import Task, TaskGraph, TaskState
from repro.runtime.perfmodel import HistoryModel, PerfModelSet
from repro.runtime.schedulers import make_scheduler
from repro.runtime.worker import (
    GPUWorker,
    WorkerType,
    build_workers,
    ground_truth_duration,
)
from repro.sim import RNGPool, Simulator, Tracer


#: Noisy calibration runs per (kernel, architecture) when a perf model is
#: seeded or re-seeded.
CALIBRATION_SAMPLES = 4
#: Upcoming queued tasks whose input transfers overlap a running kernel.
PREFETCH_DEPTH = 3

# Task states as module constants for the per-task handlers: attribute
# access on an Enum class costs about 100 ns, several times per task.
_CREATED = TaskState.CREATED
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_DONE = TaskState.DONE


class RuntimeError_(RuntimeError):
    """Engine-level failure (deadlock, misuse)."""


@dataclass
class RunResult:
    """Outcome of one graph execution."""

    makespan_s: float
    energies_j: dict[str, float]
    total_flops: float
    n_tasks: int
    scheduler: str
    worker_tasks: dict[str, int] = field(default_factory=dict)
    gpu_caps_w: list[float] = field(default_factory=list)
    cpu_caps_w: list[float] = field(default_factory=list)
    bytes_transferred: int = 0
    n_evictions: int = 0
    #: Expensive placement evaluations (estimate + transfer terms) the
    #: scheduler performed — one per (task, equivalence class), not per
    #: (task, worker).  Zero for schedulers without model-based placement.
    n_placement_evals: int = 0

    @property
    def total_energy_j(self) -> float:
        return sum(self.energies_j.values())

    @property
    def gflops(self) -> float:
        """Achieved performance in Gflop/s."""
        return self.total_flops / self.makespan_s / 1e9

    @property
    def gflops_per_watt(self) -> float:
        """Energy efficiency (Gflop/s/W == Gflop/J)."""
        return self.total_flops / self.total_energy_j / 1e9

    def gpu_task_fraction(self) -> float:
        """Share of tasks executed on GPU workers."""
        gpu = sum(n for w, n in self.worker_tasks.items() if w.startswith("gpu"))
        return gpu / max(1, self.n_tasks)

    def summary(self) -> str:
        return (
            f"{self.scheduler}: {self.n_tasks} tasks in {self.makespan_s:.3f}s, "
            f"{self.gflops:.1f} Gflop/s, {self.total_energy_j:.1f} J, "
            f"{self.gflops_per_watt:.2f} Gflop/s/W"
        )


class RuntimeSystem:
    """One runtime instance bound to a node (a StarPU process)."""

    def __init__(
        self,
        node: Node,
        scheduler: str = "dmdas",
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        exec_noise: float = 0.015,
        calib_noise: float = 0.03,
        ewma_alpha: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        decision_log: Optional[DecisionLog] = None,
    ) -> None:
        if not isinstance(node.clock, Simulator):
            raise RuntimeError_("node must be built on a Simulator clock")
        for name, sigma in (("exec_noise", exec_noise), ("calib_noise", calib_noise)):
            # A NaN sigma would otherwise surface much later as an
            # unrelated placement failure; inf and negatives are nonsense.
            if not 0.0 <= sigma < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {sigma!r}")
        self.node = node
        self.sim: Simulator = node.clock
        self.scheduler_name = scheduler
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.workers = build_workers(node)
        self.data = DataManager(node)
        self.perf = PerfModelSet(history=HistoryModel(ewma_alpha=ewma_alpha))
        self.rng = RNGPool(seed)
        self.exec_noise = exec_noise
        self.calib_noise = calib_noise
        # Observability (off by default: both None keeps hot paths clean).
        self.metrics = metrics
        self.decision_log = decision_log
        # Per-task metric objects, resolved once per label set at first use
        # (see _resolve_wait_metrics) and dropped at each run.
        self._wait_metrics: dict = {}
        self._finish_metrics: dict = {}
        # Pre-drawn execution-noise samples.  Block draws from a numpy
        # Generator are bit-identical to the same number of scalar draws,
        # and the buffer survives across run() calls, so consumption order
        # matches the unbuffered engine draw-for-draw.
        self._noise_buf: list[float] = []
        self._noise_i = 0
        self._noise_sigma = exec_noise
        # Fault recovery (off by default: None keeps hot paths clean; a
        # RecoveryManager binds itself here — see repro.faults.recovery).
        self.faults = None
        # Live telemetry (off by default: None keeps hot paths clean; attach
        # a repro.obs.stream.TelemetryBus to stream events during the run).
        self.bus = None
        self._ready_at: dict[int, float] = {}
        self._scheduler = None
        self._graph: Optional[TaskGraph] = None
        self._remaining = 0

    # ------------------------------------------------------------ calibration

    def calibrate(self, graph: TaskGraph) -> None:
        """Seed the performance models with noisy samples of every distinct
        tile kernel on every architecture — *under the current caps*.

        Calibration runs happen offline in StarPU (dedicated runs after each
        power-cap change); they consume no simulated time here.
        """
        with _spans.span("runtime.calibrate", samples=CALIBRATION_SAMPLES):
            rng = self.rng.stream("calibration")
            seen_arch: dict[str, WorkerType] = {}
            for w in self.workers:
                seen_arch.setdefault(w.arch, w)
            for op in graph.distinct_ops():
                for arch, w in seen_arch.items():
                    if not w.can_run(op):
                        continue
                    truth = ground_truth_duration(w, op)
                    for _ in range(CALIBRATION_SAMPLES):
                        noisy = truth * float(rng.lognormal(0.0, self.calib_noise))
                        self.perf.record(op, arch, noisy)
            self.perf.enable_regression()

    # -------------------------------------------------------------- execution

    def run(
        self,
        graph: TaskGraph,
        calibrate: bool = True,
        reset_energy: bool = True,
        update_models: bool = True,
    ) -> RunResult:
        """Execute the graph to completion and report time/energy metrics.

        ``calibrate=False`` keeps whatever performance models are loaded —
        the stale-model ablation uses this to show what happens when the
        scheduler is *not* informed of a cap change.  ``update_models=False``
        additionally freezes the history model during the run (StarPU keeps
        refining it online; the ablation isolates the calibration signal).

        Every run writes dirty tiles back to the host after the last task,
        as Chameleon does when handing the matrix back to the user.
        """
        bus = self.bus
        if bus is None and _spans.ACTIVE is None:
            return self._run(graph, calibrate, reset_energy, update_models)
        with _spans.span(
            "runtime.run",
            scheduler=self.scheduler_name,
            n_tasks=len(graph.tasks),
        ):
            if bus is not None:
                bus.publish({
                    "t": self.sim.now,
                    "type": "run_start",
                    "scheduler": self.scheduler_name,
                    "n_tasks": len(graph.tasks),
                    "n_workers": len(self.workers),
                    "gpu_caps": self.node.gpu_caps(),
                })
            result = self._run(graph, calibrate, reset_energy, update_models)
            if bus is not None:
                bus.publish({
                    "t": self.sim.now,
                    "type": "run_end",
                    "makespan": result.makespan_s,
                    "n_tasks": result.n_tasks,
                    "energy_j": result.total_energy_j,
                })
            return result

    def _run(
        self,
        graph: TaskGraph,
        calibrate: bool = True,
        reset_energy: bool = True,
        update_models: bool = True,
    ) -> RunResult:
        graph.validate()
        if self._remaining:
            raise RuntimeError_("a run is already in progress")
        if calibrate:
            self.perf.clear()
            self.calibrate(graph)
        if reset_energy:
            self.node.reset_energy()
        t0 = self.sim.now
        self._wait_metrics = {}
        self._finish_metrics = {}
        self._scheduler = make_scheduler(
            self.scheduler_name, self.workers, self.perf, self.data,
            self.rng.stream("scheduler"),
        )
        if self.decision_log is not None:
            self._scheduler.decision_log = self.decision_log
        self._exec_rng = self.rng.stream("exec")
        self._update_models = update_models
        self._graph = graph
        if self.faults is not None:
            self.faults.on_run_start(self._scheduler, graph)
        # With no fault injector attached nothing ever cancels engine
        # events, so the engine's no-handle fast path is safe.
        self._no_faults = self.faults is None
        self._remaining = len(graph.tasks)
        for w in self.workers:
            w.busy = False
        self._set_spinning(True)
        metrics = self.metrics
        for task in graph.roots():
            task.state = TaskState.READY
            if metrics is not None:
                self._ready_at[task.tid] = self.sim.now
            self._scheduler.push_ready(task, self.sim.now)
        self._dispatch_all()
        self.sim.run()
        if self._remaining != 0:  # pragma: no cover - defensive
            raise RuntimeError_(
                f"deadlock: {self._remaining} tasks never ran "
                f"(scheduler pending={self._scheduler.has_pending()})"
            )
        self.data.flush_to_host(graph.handles)
        # Account the tail transfers in the makespan.
        tail = max(
            (link.busy_until("d2h") for link in self.node.links),
            default=self.sim.now,
        )
        if tail > self.sim.now:
            self.sim.schedule_at(tail, lambda: None)
            self.sim.run()
        self._set_spinning(False)
        makespan = self.sim.now - t0
        result = RunResult(
            makespan_s=makespan,
            energies_j=self.node.device_energies_j(),
            total_flops=graph.total_flops(),
            n_tasks=len(graph.tasks),
            scheduler=self.scheduler_name,
            worker_tasks={w.name: w.n_tasks for w in self.workers},
            gpu_caps_w=self.node.gpu_caps(),
            cpu_caps_w=[c.power_limit_w for c in self.node.cpus],
            bytes_transferred=self.data.bytes_transferred,
            n_evictions=sum(m.n_evictions for m in self.data.managers.values()),
            n_placement_evals=getattr(self._scheduler, "n_placement_evals", 0),
        )
        if self.metrics is not None:
            self._flush_metrics(result)
        self._scheduler = None
        self._graph = None
        return result

    @property
    def pending_tasks(self) -> int:
        """Tasks of the in-progress run not yet completed (0 when idle)."""
        return self._remaining

    # -------------------------------------------------------- fault recovery

    def abort_task(self, task: Task, worker: WorkerType, running: bool) -> None:
        """Undo the device and data state of an in-flight task.

        Called by the recovery layer after it cancelled the task's pending
        engine events.  ``running`` distinguishes a task whose kernel had
        begun (:meth:`_start_exec` fired) from one still staging data.  The
        task's writes never happened, so staged data is abandoned without
        coherence effects; the worker is freed but *not* redispatched.
        """
        if isinstance(worker, GPUWorker):
            if running:
                worker.gpu.end_kernel()
            worker.driver_package.end_core()
        elif running:
            worker.package.end_core()
        self.data.abandon(task.accesses, worker.mem_node)
        task.state = TaskState.READY
        task.worker_name = None
        task.start_time = None
        worker.busy = False

    def resubmit(self, task: Task) -> None:
        """Push an aborted (or drained) task back to the scheduler."""
        task.state = TaskState.READY
        if self.metrics is not None:
            self._ready_at[task.tid] = self.sim.now
        self._scheduler.push_ready(task, self.sim.now)
        self._dispatch_all()

    def wake(self) -> None:
        """Re-examine idle workers (after a fault-recovery readmission)."""
        self._dispatch_all()

    def recalibrate_arch(self, arch: str) -> int:
        """Re-seed one architecture's performance models *under the current
        device state* (cap, thermal throttle).

        The in-run analogue of StarPU's recalibration after a power-cap
        change: the recovery layer calls this when observed durations drift
        far from the model, so dm-family schedulers re-plan around the
        degraded (or recovered) device.  Returns the number of distinct
        kernels re-seeded.
        """
        if self._graph is None:
            return 0
        sample = next((w for w in self.workers if w.arch == arch), None)
        if sample is None:
            return 0
        self.perf.invalidate_arch(arch)
        rng = self.rng.stream("calibration")
        reseeded = 0
        for op in self._graph.distinct_ops():
            if not sample.can_run(op):
                continue
            truth = ground_truth_duration(sample, op)
            for _ in range(CALIBRATION_SAMPLES):
                noisy = truth * float(rng.lognormal(0.0, self.calib_noise))
                self.perf.record(op, arch, noisy)
            reseeded += 1
        if reseeded:
            self.perf.enable_regression()
        return reseeded

    # -------------------------------------------------------------- internals

    def _set_spinning(self, active: bool) -> None:
        """Pin (or release) one busy-wait thread per worker core.

        StarPU worker threads poll actively for the whole application run;
        this is what makes the CPU packages draw a large constant share of
        node power (paper Fig. 5).
        """
        counts = {id(cpu): 0 for cpu in self.node.cpus}
        if active:
            for w in self.workers:
                pkg = w.driver_package if isinstance(w, GPUWorker) else w.package
                counts[id(pkg)] += 1
        for cpu in self.node.cpus:
            cpu.set_spinning(counts[id(cpu)])

    def _dispatch_all(self) -> None:
        scheduler = self._scheduler
        for w in self.workers:
            if not w.busy and w.available and scheduler.has_work_for(w):
                self._try_start(w)

    def _flush_metrics(self, result: RunResult) -> None:
        """Publish run-level totals into the attached registry.

        Counters are cumulative across runs of this ``RuntimeSystem``, so
        each flush raises them to the underlying monotonic totals instead of
        re-adding them.
        """
        m = self.metrics

        def set_total(name: str, help: str, total: float, labels=None) -> None:
            counter = m.counter(name, help, labels=labels)
            counter.inc(total - counter.value)

        data = self.data
        set_total("repro_transfer_bytes_total",
                  "Bytes moved over the PCIe links.", data.bytes_transferred)
        set_total("repro_transfers_total",
                  "Individual link reservations.", data.n_transfers)
        set_total("repro_evictions_total", "LRU device-memory evictions.",
                  sum(mgr.n_evictions for mgr in data.managers.values()))
        # Always zero: nothing memoises transfer estimates.  The two samples
        # keep the metrics.prom layout that the sha256 goldens pin.
        for outcome in ("hit", "miss"):
            set_total("repro_transfer_memo_total",
                      "Scoped transfer-estimate memo lookups.",
                      0, labels={"result": outcome})
        perf = self.perf
        set_total("repro_perfmodel_cache_total",
                  "Resolved-estimate cache lookups.",
                  perf.n_cache_hits, labels={"result": "hit"})
        set_total("repro_perfmodel_cache_total",
                  "Resolved-estimate cache lookups.",
                  perf.n_cache_misses, labels={"result": "miss"})
        set_total("repro_gpu_op_point_cache_total",
                  "GPU operating-point cache lookups.",
                  sum(g.n_op_cache_hits for g in self.node.gpus),
                  labels={"result": "hit"})
        set_total("repro_gpu_op_point_cache_total",
                  "GPU operating-point cache lookups.",
                  sum(g.n_op_cache_misses for g in self.node.gpus),
                  labels={"result": "miss"})
        set_total("repro_sim_events_total",
                  "Discrete events processed by the simulator.",
                  self.sim.n_processed)
        set_total("repro_sim_events_cancelled_total",
                  "Events cancelled before firing.",
                  self.sim.n_cancelled_total)
        set_total("repro_sim_heap_compactions_total",
                  "Event-heap compaction passes.",
                  self.sim.n_compactions)
        scheduler = self._scheduler
        if scheduler is not None:
            m.gauge("repro_placement_evals",
                    "Expensive placement evaluations in the last run."
                    ).set(scheduler.n_placement_evals)
            m.gauge("repro_tasks_pushed",
                    "Tasks pushed to the scheduler in the last run."
                    ).set(scheduler.n_pushed)
        m.gauge("repro_makespan_seconds",
                "Makespan of the last run.").set(result.makespan_s)
        for w in self.workers:
            m.gauge("repro_worker_busy_seconds",
                    "Cumulative busy time per worker.",
                    labels={"worker": w.name}).set(w.busy_time)
            m.gauge("repro_worker_tasks",
                    "Cumulative tasks executed per worker.",
                    labels={"worker": w.name}).set(w.n_tasks)
        for device, joules in result.energies_j.items():
            m.gauge("repro_device_energy_joules",
                    "Energy of the last run per device.",
                    labels={"device": device}).set(joules)
        for i, cap in enumerate(result.gpu_caps_w):
            m.gauge("repro_gpu_cap_watts", "Applied GPU power cap.",
                    labels={"gpu": f"gpu{i}"}).set(cap)
        if self.bus is not None:
            m.publish_to(self.bus)

    def _resolve_wait_metrics(self, arch: str) -> tuple:
        """The queue-wait and stage-wait histograms of one arch.

        Resolved once per arch, at the first task start that observes them
        (nothing registers a metric in between), so registration order and
        the ``metrics.prom`` bytes match a per-task lookup."""
        labels = {"arch": arch}
        waits = self._wait_metrics[arch] = (
            self.metrics.histogram(
                "repro_queue_wait_seconds",
                "Simulated time from task-ready to worker pop.",
                labels=labels,
            ),
            self.metrics.histogram(
                "repro_stage_wait_seconds",
                "Simulated transfer delay staging a task's inputs.",
                labels=labels,
            ),
        )
        return waits

    def _resolve_finish_metrics(self, kind: str, worker: WorkerType) -> tuple:
        """The duration histogram and completion counter one ``(kind,
        worker)`` pair feeds, resolved at its first completion (see
        :meth:`_resolve_wait_metrics`)."""
        done = self._finish_metrics[(kind, worker.name)] = (
            self.metrics.histogram(
                "repro_task_duration_seconds",
                "Simulated kernel execution time.",
                labels={"kind": kind, "arch": worker.arch},
            ),
            self.metrics.counter(
                "repro_tasks_total",
                "Tasks completed, by executing worker.",
                labels={"worker": worker.name},
            ),
        )
        return done

    def _try_start(self, worker: WorkerType) -> None:
        # The clock cannot move inside an event handler: read it once.
        now = self.sim.now
        task = self._scheduler.pop(worker, now)
        if task is None:
            return
        # Worker.can_run, inlined: a GPU worker runs only GPU kernels.
        if worker.is_gpu and not task.op.runs_on_gpu:
            raise RuntimeError_(
                f"scheduler gave {task.op.kind!r} to {worker.name}, which has "
                "no implementation for it"
            )
        worker.busy = True
        task.state = _RUNNING
        task.worker_name = worker.name
        self._scheduler.task_started(task, worker, now)
        metrics = self.metrics
        if metrics is not None:
            waits = self._wait_metrics.get(worker.arch)
            if waits is None:
                waits = self._resolve_wait_metrics(worker.arch)
            waits[0].observe(now - self._ready_at.pop(task.tid, now))
        ready = self.data.acquire(task.accesses, worker.mem_node, now, task.label)
        start = ready if ready > now else now
        if metrics is not None:
            waits[1].observe(start - now)
        if worker.is_gpu:
            # The driver core busy-waits through staging and execution.
            worker.driver_package.begin_core()
        if self._no_faults:
            self.sim.post_at(start, self._start_exec, task, worker)
        else:
            handle = self.sim.schedule_at(start, self._start_exec, task, worker)
            self.faults.on_task_staging(task, worker, handle)

    def _next_noise(self) -> float:
        """Next pre-drawn lognormal execution-noise sample (refill by block).

        :meth:`_start_exec` takes samples inline while the buffer holds
        them; this is the refill path."""
        i = self._noise_i
        buf = self._noise_buf
        if i >= len(buf) or self._noise_sigma != self.exec_noise:
            buf = self._noise_buf = self._exec_rng.lognormal(
                0.0, self.exec_noise, size=1024
            ).tolist()
            self._noise_sigma = self.exec_noise
            i = 0
        self._noise_i = i + 1
        return buf[i]

    def _start_exec(self, task: Task, worker: WorkerType) -> None:
        now = self.sim.now
        task.start_time = now
        i = self._noise_i
        buf = self._noise_buf
        if i < len(buf) and self._noise_sigma == self.exec_noise:
            self._noise_i = i + 1
            noise = buf[i]
        else:
            noise = self._next_noise()
        op = task.op
        if worker.is_gpu:
            worker.gpu.begin_kernel(op.precision, op.activity(worker.gpu.spec), task.label)
            duration = op.time_on_gpu(worker.gpu) * noise
        else:
            worker.package.begin_core()
            duration = op.time_on_cpu_core(worker.package) * noise
        if self.tracer.enabled:
            self.tracer.interval(
                worker.name, "task", now, now + duration, task.label, task_kind=op.kind
            )
        if self._no_faults:
            self.sim.post(duration, self._finish, task, worker, duration)
        else:
            handle = self.sim.schedule(duration, self._finish, task, worker, duration)
            self.faults.on_task_running(task, worker, handle, duration)
        # Overlap upcoming queued tasks' transfers with this execution.
        self.data.prefetch(
            self._scheduler.peek_many(worker, PREFETCH_DEPTH), worker.mem_node
        )

    def _finish(self, task: Task, worker: WorkerType, duration: float) -> None:
        now = self.sim.now
        if worker.is_gpu:
            worker.gpu.end_kernel()
            worker.driver_package.end_core()
        else:
            worker.package.end_core()
        self.data.release(task.accesses, worker.mem_node)
        task.state = _DONE
        task.end_time = now
        worker.busy = False
        worker.n_tasks += 1
        worker.busy_time += duration
        worker.flops_done += task.op.flops
        if self._update_models:
            self.perf.record(task.op, worker.arch, duration)
        if self.faults is not None:
            self.faults.on_task_finished(task, worker, duration)
        metrics = self.metrics
        if metrics is not None:
            done = self._finish_metrics.get((task.op.kind, worker.name))
            if done is None:
                done = self._resolve_finish_metrics(task.op.kind, worker)
            done[0].observe(duration)
            done[1].inc()
        bus = self.bus
        if bus is not None:
            # Streams the same interval shape the post-hoc exporter emits
            # for tracer intervals (stream consumers and `repro report`
            # share one reader path), via the bus's typed fast lane — a
            # per-task dict build alone would eat most of the attached
            # overhead budget.
            bus.publish_interval(
                task.start_time, worker.name, now, task.label, task.op.kind
            )
        scheduler = self._scheduler
        scheduler.task_finished(task, worker, now)
        self._remaining -= 1
        if scheduler.binds_tasks:
            # Targeted dispatch: between events no idle, available worker
            # holds queued work (every dispatch round starts all of them),
            # and queues only grow at push_ready.  So the only workers that
            # can need a start here are the one this completion freed and
            # the ones that just received pushes — examined in worker-index
            # order, exactly as the full scan would.
            # The dict and its sort are built only once a successor lands
            # on another worker; most completions feed only their own.
            targets = None
            for succ in task.successors:
                succ.deps_remaining -= 1
                if succ.deps_remaining == 0 and succ.state is _CREATED:
                    succ.state = _READY
                    if metrics is not None:
                        self._ready_at[succ.tid] = now
                    placed = scheduler.push_ready(succ, now)
                    if placed is not None and placed is not worker:
                        if targets is None:
                            targets = {worker.index: worker}
                        targets[placed.index] = placed
            if targets is None:
                if not worker.busy and worker.available and scheduler.has_work_for(worker):
                    self._try_start(worker)
            else:
                for index in sorted(targets):
                    w = targets[index]
                    if not w.busy and w.available and scheduler.has_work_for(w):
                        self._try_start(w)
        else:
            for succ in task.successors:
                succ.deps_remaining -= 1
                if succ.deps_remaining == 0 and succ.state is _CREATED:
                    succ.state = _READY
                    if metrics is not None:
                        self._ready_at[succ.tid] = now
                    scheduler.push_ready(succ, now)
            self._dispatch_all()
