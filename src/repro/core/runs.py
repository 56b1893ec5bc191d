"""One way to build a simulated run, and one static-vs-treated comparison.

Every measured run in the paper follows one procedure: apply the caps, run
the tiled operation under the scheduler, and read NVML/RAPL over the run.
A :class:`RunSpec` declares such a run; :func:`build_run` composes it —
platform, caps, runtime, observers, faults, governor, power sampler and
telemetry bus — in one fixed order, so a baseline and a treated run that
differ only in their specs differ only in what the specs say.

- ``observe`` attaches the tracer, metrics registry and decision log;
- ``plan`` (an absolute-time :class:`~repro.faults.plan.FaultPlan`) arms a
  fault injector and recovery manager, and the caps are then applied
  through the verified NVML path (cap-set faults fire inside it);
- ``governor`` runs a :class:`~repro.govern.controller.PowerBudgetGovernor`
  over ``budget_w`` from the spec's caps;
- ``power_period_s`` attaches a power sampler (its ticks are sim events,
  so runs that compare numbers must agree on it).

:func:`compare` is the ``repro chaos`` / ``repro govern`` harness: a lean
fault-free baseline (memoised in the experiment cache), the fault plan
resolved against its makespan, then the treated run and its artefacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from repro.core.capconfig import CapConfig, CapStates
from repro.energy.meters import EnergyMeter
from repro.hardware.catalog import build_platform
from repro.obs.decisions import DecisionLog
from repro.obs.exporters import (
    DECISIONS_FILENAME,
    EVENTS_FILENAME,
    FAULTS_FILENAME,
    METRICS_FILENAME,
    RESULT_FILENAME,
    TRACE_FILENAME,
    write_enriched_chrome_trace,
    write_events_jsonl,
)
from repro.obs.manifest import RunManifest, code_version
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import (
    OnlineAggregator,
    StreamWriter,
    TelemetryBus,
    Watchdogs,
    publish_run_info,
    run_info_event,
    run_info_from_manifest,
)
from repro.runtime import RuntimeSystem
from repro.runtime.engine import RunResult
from repro.runtime.graph import TaskState
from repro.sim import Simulator, Tracer
from repro.tools.powertrace import PowerSampler

if TYPE_CHECKING:  # the faults and govern packages import this module
    from repro.core.tradeoff import OperationSpec
    from repro.faults.plan import FaultPlan
    from repro.govern.controller import GovernorConfig


@dataclass(frozen=True)
class RunSpec:
    """Declarative identity of one simulated run."""

    platform: str
    operation: "OperationSpec"  # the (first) operation, for the manifest
    config: CapConfig
    states: CapStates
    scheduler: str = "dmdas"
    seed: int = 0
    cpu_caps: Optional[Mapping[int, float]] = None
    scale: str = "custom"
    observe: bool = False
    plan: Optional["FaultPlan"] = None
    cap_retries: int = 3
    power_period_s: Optional[float] = None
    ewma_alpha: Optional[float] = None
    governor: Optional["GovernorConfig"] = None
    budget_w: float = 0.0  # the governor's watt budget

    @property
    def caps_w(self) -> list[float]:
        return self.config.watts(self.states)


@dataclass
class Run:
    """A built run: its parts, then (after :meth:`execute`) its results.

    Which optional parts exist follows from the spec, so they are typed
    loosely; each comment names the type and the condition.
    """

    spec: RunSpec
    runtime: RuntimeSystem
    tracer: Any = None        # Tracer: observe, or a caller's tracer
    registry: Any = None      # MetricsRegistry: observe
    decisions: Any = None     # DecisionLog: observe
    injector: Any = None      # FaultInjector: plan
    recovery: Any = None      # RecoveryManager: plan
    governor: Any = None      # PowerBudgetGovernor: governor
    sampler: Any = None       # PowerSampler: power_period_s
    cap_reports: list = field(default_factory=list)  # CapReport: plan
    outdir: Any = None        # Path: outdir
    manifest: Any = None      # RunManifest: outdir
    bus: Any = None           # TelemetryBus: stream or governor
    aggregator: Any = None    # OnlineAggregator: stream
    watchdogs: Any = None     # Watchdogs: stream
    cache: Any = None
    graphs: list = field(default_factory=list)
    results: list[RunResult] = field(default_factory=list)
    measurement: Any = None   # Measurement: after execute()

    @property
    def anomalies(self) -> list:
        return list(self.watchdogs.raised) if self.watchdogs is not None else []

    def execute(self, operations: Sequence["OperationSpec"]) -> list[RunResult]:
        """Run the operations back to back as phases of one measured run.

        One energy meter spans every phase.  A governor re-targets its
        workload per phase; later phases re-arm only the faults still in
        the future (arming schedules past-time faults "now", which would
        re-fire earlier injections).  The bus is always closed — drained,
        then the writer flushed — so a run that raises keeps every event
        published before the raise.
        """
        runtime, injector, governor = self.runtime, self.injector, self.governor
        meter = EnergyMeter(runtime.node)
        meter.start()
        try:
            for k, op in enumerate(operations):
                if governor is not None:
                    governor.set_workload(op.precision, op.nb)
                if k > 0 and injector is not None:
                    plan = injector.plan
                    injector.plan = replace(
                        plan, faults=[f for f in plan.faults if f.time > runtime.sim.now]
                    )
                if governor is not None and k == 0:
                    governor.start()
                elif governor is not None:
                    governor.resume()
                if self.sampler is not None:
                    self.sampler.start()
                graph = op.build_graph()
                self.graphs.append(graph)
                self.results.append(runtime.run(graph, reset_energy=False))
        finally:
            if self.bus is not None:
                self.bus.close()
        self.measurement = meter.stop()
        return self.results

    # ---------------------------------------------------------------- audit

    def all_tasks_done(self) -> bool:
        return all(t.state is TaskState.DONE for g in self.graphs for t in g.tasks)

    def executed_exactly_once(self) -> bool:
        # worker.n_tasks is cumulative across phases, so the last result's
        # counts must equal the run's total task count exactly.
        return (sum(self.results[-1].worker_tasks.values())
                == sum(r.n_tasks for r in self.results))

    def totals(self) -> dict:
        """Makespan, energy and throughput over every phase."""
        makespan = sum(r.makespan_s for r in self.results)
        return {
            "makespan_s": makespan,
            "energy_j": self.measurement.total_j,
            "gflops": sum(r.total_flops for r in self.results) / makespan / 1e9,
            "phase_makespans_s": [r.makespan_s for r in self.results],
        }

    # ------------------------------------------------------------ artefacts

    def write_artefacts(
        self,
        result_extra: Optional[dict] = None,
        extra_files: Optional[Mapping[str, dict]] = None,
    ) -> None:
        """Write the run directory (the manifest is already there).

        Streamed runs wrote ``events.jsonl`` live; it is never clobbered by
        a post-hoc reconstruction.
        """
        out = self.outdir
        result = self.results[-1]
        record = {
            "makespan_s": result.makespan_s,
            "energies_j": result.energies_j,
            "total_energy_j": result.total_energy_j,
            "total_flops": result.total_flops,
            "gflops": result.gflops,
            "gflops_per_watt": result.gflops_per_watt,
            "n_tasks": result.n_tasks,
            "scheduler": result.scheduler,
            "worker_tasks": result.worker_tasks,
            "gpu_caps_w": result.gpu_caps_w,
            "cpu_caps_w": result.cpu_caps_w,
            "bytes_transferred": result.bytes_transferred,
            "n_evictions": result.n_evictions,
            "n_placement_evals": result.n_placement_evals,
            "measured_duration_s": self.measurement.duration_s,
            "measured_total_j": self.measurement.total_j,
            **(result_extra or {}),
        }
        (out / RESULT_FILENAME).write_text(json.dumps(record, indent=2) + "\n")
        for name, doc in (extra_files or {}).items():
            (out / name).write_text(json.dumps(doc, indent=2) + "\n")
        fault_events: list = []
        if self.injector is not None:
            fault_events = self.injector.events + self.recovery.events
            with open(out / FAULTS_FILENAME, "w") as fh:
                for rec in sorted(fault_events, key=lambda e: e["t"]):
                    fh.write(json.dumps(rec) + "\n")
        self.decisions.write_jsonl(str(out / DECISIONS_FILENAME))
        if self.aggregator is None:  # not streamed live
            write_events_jsonl(
                str(out / EVENTS_FILENAME), self.tracer, self.decisions,
                self.sampler, fault_events,
            )
        write_enriched_chrome_trace(
            str(out / TRACE_FILENAME), self.tracer, self.sampler, self.decisions
        )
        if self.cache is not None:
            self.cache.publish_metrics(self.registry)
        publish_run_info(self.registry, run_info_from_manifest(self.manifest))
        (out / METRICS_FILENAME).write_text(self.registry.to_prometheus())


def build_run(
    spec: RunSpec,
    outdir: Optional[str] = None,
    stream: bool = False,
    cache=None,
    tracer: Optional[Tracer] = None,
) -> Run:
    """Compose the run ``spec`` declares, ready to :meth:`Run.execute`.

    ``stream=True`` (requires ``outdir``) writes ``events.jsonl`` live
    through a telemetry bus with the online aggregator and watchdogs
    attached; the manifest is written first, so a tail reader (or a
    post-mortem of a killed run) can identify the run.  ``cache`` only
    labels the manifest and ``metrics.prom``.  ``tracer`` records into a
    caller's tracer without the other observers.
    """
    if stream and outdir is None:
        raise ValueError("stream=True requires an outdir to stream into")
    sim = Simulator()
    if spec.observe and tracer is None:
        tracer = Tracer()
    node = build_platform(spec.platform, sim, tracer)
    if spec.config.n_gpus != node.n_gpus:
        raise ValueError(
            f"config {spec.config.letters} has {spec.config.n_gpus} states for "
            f"{node.n_gpus} GPUs on {spec.platform}"
        )
    registry = MetricsRegistry(clock=sim) if spec.observe else None
    decisions = DecisionLog() if spec.observe else None
    runtime = RuntimeSystem(
        node, scheduler=spec.scheduler, seed=spec.seed, tracer=tracer,
        metrics=registry, decision_log=decisions, ewma_alpha=spec.ewma_alpha,
    )
    run = Run(spec=spec, runtime=runtime, tracer=tracer, registry=registry,
              decisions=decisions, cache=cache)
    plan = spec.plan
    if plan is not None:
        from repro.faults.injector import FaultInjector
        from repro.faults.recovery import RecoveryManager

        run.injector = FaultInjector(runtime, plan, metrics=registry)
        run.recovery = RecoveryManager(
            runtime, run.injector, metrics=registry, decisions=decisions,
        )
    cpu_caps = spec.cpu_caps or {}
    if outdir is not None:
        run.outdir = Path(outdir)
        run.outdir.mkdir(parents=True, exist_ok=True)
        op = spec.operation
        run.manifest = RunManifest(
            platform=spec.platform, scheduler=spec.scheduler,
            config=spec.config.letters, gpu_caps_w=tuple(spec.caps_w),
            op=op.op, n=op.n, nb=op.nb, precision=op.precision,
            scale=spec.scale, seed=spec.seed,
            cpu_caps_w={f"cpu{pkg}": watts for pkg, watts in cpu_caps.items()},
            cache=cache.counts() if cache is not None else {},
            version=code_version(),
        )
        run.manifest.write(run.outdir)
    if stream or spec.governor is not None:
        # batch=64 bounds delivery latency while keeping subscriber fan-out
        # in tight loops — the attached-overhead budget (see TelemetryBus);
        # FLUSH_NOW types (header, faults, anomalies) still deliver at once.
        run.bus = TelemetryBus(clock=sim, batch=64)
    if stream:
        # Writer first (the raw stream is the ground truth even if an
        # aggregator update ever failed), then the aggregator, then the
        # watchdogs that read it.
        run.aggregator = OnlineAggregator()
        run.watchdogs = Watchdogs(run.aggregator, run.bus)
        run.bus.subscribe(StreamWriter(str(run.outdir / EVENTS_FILENAME)))
        run.bus.subscribe(run.aggregator)
        run.bus.subscribe(run.watchdogs)
        run.bus.publish(run_info_event(run_info_from_manifest(run.manifest),
                                       t=sim.now))
        # Before arm(): cap-set faults fire inside the verified cap
        # application below, and those injections belong in the stream too.
        for producer in (runtime, decisions, run.injector, run.recovery):
            if producer is not None:
                producer.bus = run.bus
    try:
        if plan is not None:
            from repro.faults.nvml_guard import apply_caps_verified

            run.injector.arm()
            run.cap_reports = apply_caps_verified(
                node, spec.caps_w, retries=spec.cap_retries, strict=False
            )
        else:
            node.set_gpu_caps(spec.caps_w)
        for pkg, watts in cpu_caps.items():
            node.cpus[pkg].set_power_limit(watts)
        if spec.governor is not None:
            from repro.govern.controller import PowerBudgetGovernor

            run.governor = PowerBudgetGovernor(
                node, runtime, spec.budget_w, spec.caps_w, config=spec.governor,
                metrics=registry, decisions=decisions,
            )
            run.recovery.listeners.append(run.governor)
        if spec.power_period_s is not None:
            run.sampler = PowerSampler(node, runtime, period_s=spec.power_period_s)
            if plan is not None:
                run.sampler.blackouts.extend(plan.dropout_windows())
        if run.bus is not None:
            # Without a stream the bus only carries power samples (and budget
            # moves) to the governor; nothing is written to disk.
            for producer in (run.sampler, run.governor):
                if producer is not None:
                    producer.bus = run.bus
            if run.governor is not None:
                run.bus.subscribe(run.governor)
    except BaseException:
        if run.bus is not None:
            run.bus.close()  # the stream writer's file must not leak
        raise
    return run


# ------------------------------------------------------ static vs treated


def audit_passed(audit: Mapping) -> bool:
    """Every boolean check holds and every count is zero."""
    return all(bool(v) if isinstance(v, bool) else v == 0 for v in audit.values())


class Audited:
    """Mixin for comparison results carrying a ``summary["audit"]``."""

    summary: dict

    @property
    def passed(self) -> bool:
        """Whether the resilience audit held."""
        return audit_passed(self.summary["audit"])


def pct(value: float, base: float) -> float:
    return (value - base) / base * 100.0 if base > 0 else 0.0


@dataclass
class Comparison:
    """A lean fault-free baseline against an executed treated run."""

    baseline: dict               # totals (see :meth:`Run.totals`)
    baseline_results: Optional[list[RunResult]]  # None: served from cache
    plan: "FaultPlan"            # resolved (absolute times)
    run: Run

    def baseline_block(self) -> dict:
        # Explicit key order: the cached payload round-trips through
        # sorted-key JSON, and summaries must be byte-identical warm vs cold.
        return {k: self.baseline[k] for k in ("makespan_s", "energy_j", "gflops")}

    def treated_block(self) -> dict:
        treated = self.run.totals()
        return {k: treated[k] for k in ("makespan_s", "energy_j", "gflops")}

    def change_pct(self) -> dict:
        treated = self.run.totals()
        return {
            "makespan_pct": pct(treated["makespan_s"], self.baseline["makespan_s"]),
            "energy_pct": pct(treated["energy_j"], self.baseline["energy_j"]),
        }

    def plan_record(self) -> dict:
        return {
            "name": self.plan.name,
            "seed": self.plan.seed,
            "n_faults": len(self.plan),
            "faults": [f.to_record() for f in self.plan.faults],
        }

    def fault_record(self) -> dict:
        """The summary fields every faulted run reports, in order."""
        run = self.run
        return {
            "faults_injected": run.injector.n_injected,
            "recovery": run.recovery.stats(),
            "cap_reports": [r.to_record() for r in run.cap_reports],
            "power_samples_dropped": run.sampler.n_dropped,
        }


def compare(
    baseline: RunSpec,
    treated: RunSpec,
    plan: "FaultPlan",
    operations: Sequence["OperationSpec"],
    summarize: Callable[[Comparison], dict],
    summary_file: str,
    cache_name: str,
    cache_label: str,
    baseline_prefix: str,
    outdir: Optional[str] = None,
    stream: bool = False,
    cache=None,
) -> tuple[Comparison, dict]:
    """Baseline, then treated: the shared ``repro chaos``/``govern`` path.

    1. the baseline's totals, memoised in ``cache`` under ``cache_name``
       and the baseline's run identity (the baseline is deterministic and
       writes no artefacts, so repeated studies skip it entirely);
    2. ``plan`` resolved against the baseline makespan (when relative);
    3. the treated spec with that plan, built and executed (streamed with
       ``stream``);
    4. ``summarize(comparison)`` written to ``summary_file`` next to the
       run's artefacts (with ``outdir``).
    """
    if stream and outdir is None:
        raise ValueError("stream=True requires an outdir to stream into")
    key = None
    totals: Optional[dict] = None
    if cache is not None:
        from repro.cache.experiment import operation_call

        try:
            call = operation_call(
                cache_name, baseline.platform, baseline.operation,
                baseline.config, baseline.states, baseline.scheduler,
                baseline.seed, baseline.cpu_caps,
            )
        except (AttributeError, TypeError, ValueError):
            call = None
        if call is not None:
            key = cache.key_for_call(call)
            hit, value = cache.load(key)
            if hit:
                totals = value
    baseline_results = None
    if totals is None:
        base = build_run(baseline)
        baseline_results = base.execute(operations)
        totals = base.totals()
        # Free the baseline's runtime and graphs before the treated run is
        # built, so the two never share the peak memory.
        del base
        if key is not None:
            cache.save(key, totals, label=cache_label)

    if plan.relative:
        plan = plan.resolve(totals["makespan_s"])
    run = build_run(replace(treated, plan=plan), outdir, stream, cache)
    run.execute(operations)
    comparison = Comparison(totals, baseline_results, plan, run)
    summary = summarize(comparison)
    if outdir is not None:
        run.write_artefacts(
            result_extra={
                f"{baseline_prefix}_makespan_s": totals["makespan_s"],
                f"{baseline_prefix}_energy_j": totals["energy_j"],
            },
            extra_files={summary_file: summary},
        )
    return comparison, summary


def comparison_lines(summary: dict, labels: tuple[str, str], change: str,
                     change_label: str) -> list[str]:
    """Plan, baseline, treated and change lines of a comparison summary."""
    lines = [
        f"plan: {summary['plan']['name'] or 'custom'} "
        f"({summary['plan']['n_faults']} faults, "
        f"{summary['faults_injected']} events injected)",
    ]
    width = max(len(k) for k in labels) + 1
    lines += [
        f"{(k + ':').ljust(width)} {summary[k]['makespan_s']:.4f}s, "
        f"{summary[k]['energy_j']:.1f} J"
        for k in labels
    ]
    delta = summary[change]
    lines.append(
        f"{change_label}: makespan {delta['makespan_pct']:+.2f} %, "
        f"energy {delta['energy_pct']:+.2f} %"
    )
    return lines


def recovery_line(summary: dict) -> str:
    rec = summary["recovery"]
    if not any(rec.values()):
        return "recovery: (no actions needed)"
    return "recovery: " + ", ".join(f"{k}={v}" for k, v in rec.items() if v)


def audit_line(summary: dict) -> str:
    audit = summary["audit"]
    return (
        "audit: " + ("PASS" if audit_passed(audit) else "FAIL")
        + " (" + ", ".join(f"{k}={v}" for k, v in audit.items()) + ")"
    )
