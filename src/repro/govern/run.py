"""Governed vs static-best comparison runs (the ``repro govern`` backend).

:func:`run_govern` executes the same workload scenario twice under one
global watt budget:

1. **static-best** — the best feasible ladder configuration (the paper's
   protocol: pick the highest-efficiency L/B/H config whose caps fit the
   budget, derived for the *first* phase's workload) applied once and held
   for the whole scenario, fault-free;
2. **governed** — the :class:`~repro.govern.controller.PowerBudgetGovernor`
   re-solving the budget split mid-run from live telemetry, under a fault
   plan (possibly empty).

A *scenario* is one or two workload phases: ``mix="steady"`` runs the
requested operation once; ``mix="shift"`` follows it with a second phase of
a different (op, precision) — the case static capping cannot adapt to,
because its ``B`` states were derived for the first phase's kernel.

Both runs share the measurement path: a power sampler ticking on the sim
clock and an energy meter spanning all phases, so the comparison isolates
the governor.  Only the governed run attaches the tracer, metrics and
decision log, because only its artefacts are written; the static-best run
reports makespans, flops and joules.  Both are bit-deterministic per
(seed, plan): re-running reproduces ``govern.json`` and the budget-move
ledger byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.capconfig import CapConfig, CapStates
from repro.core.tradeoff import OperationSpec
from repro.energy.meters import EnergyMeter
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.injector import FaultInjector
from repro.faults.nvml_guard import apply_caps_verified
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.govern.controller import GovernorConfig, PowerBudgetGovernor
from repro.hardware.catalog import build_platform
from repro.kernels.gemm import GemmKernel
from repro.obs.capture import attach_stream, result_record
from repro.obs.decisions import DecisionLog
from repro.obs.exporters import (
    DECISIONS_FILENAME,
    EVENTS_FILENAME,
    FAULTS_FILENAME,
    GOVERN_FILENAME,
    METRICS_FILENAME,
    RESULT_FILENAME,
    TRACE_FILENAME,
    write_enriched_chrome_trace,
    write_events_jsonl,
)
from repro.obs.manifest import RunManifest, code_version
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RuntimeSystem
from repro.runtime.engine import RunResult
from repro.runtime.graph import TaskState
from repro.sim import Simulator, Tracer
from repro.tools.powertrace import PowerSampler

#: The shifted second phase per first-phase workload: a different kernel
#: *and* precision, so the first phase's derived ``B`` states are wrong
#: for it (the scenario static capping cannot follow).
_SHIFT_TO = {("gemm", "double"): ("potrf", "single"),
             ("potrf", "single"): ("gemm", "double")}

MIXES = ("steady", "shift")


@dataclass(frozen=True)
class Phase:
    """One workload phase of a scenario."""

    op: str
    precision: str
    spec: OperationSpec
    states: CapStates


@dataclass
class GovernRun:
    """Everything produced by one govern comparison."""

    outdir: Optional[Path]
    plan: FaultPlan  # resolved (absolute times)
    static_config: CapConfig
    governed: list[RunResult]
    summary: dict
    registry: MetricsRegistry
    decisions: DecisionLog
    tracer: Tracer
    sampler: PowerSampler
    injector: FaultInjector
    recovery: RecoveryManager
    governor: PowerBudgetGovernor
    anomalies: tuple = ()

    @property
    def passed(self) -> bool:
        """Whether the resilience audit held."""
        audit = self.summary["audit"]
        return all(bool(v) if isinstance(v, bool) else v == 0
                   for v in audit.values())


def scenario_phases(
    platform: str, op: str, precision: str, scale: str, mix: str, cache=None
) -> list[Phase]:
    """The workload phases of a (platform, op, precision, mix) scenario."""
    if mix not in MIXES:
        raise ValueError(f"unknown mix {mix!r}; known: {', '.join(MIXES)}")
    steps = [(op, precision)]
    if mix == "shift":
        steps.append(_SHIFT_TO.get((op, precision), ("gemm", "double")))
    return [
        Phase(
            op=o,
            precision=p,
            spec=operation_spec(platform, o, p, scale),
            states=cap_states(platform, o, p, scale, cache=cache),
        )
        for o, p in steps
    ]


def default_budget_w(platform: str) -> float:
    """A budget with real pressure: 80 % of the platform's cap-max sum."""
    sim = Simulator()
    node = build_platform(platform, sim)
    return round(0.8 * sum(g.spec.cap_max_w for g in node.gpus), 1)


def static_best_config(
    platform: str, phase: Phase, budget_w: float
) -> tuple[CapConfig, list[float]]:
    """Best feasible ladder config for the *first* phase under the budget.

    Scans the standard L/B/H ladder, keeps configurations whose watt sum
    fits the budget, and picks the one with the highest analytic farm
    efficiency for the phase's tile kernel (ties break toward the first in
    ladder order, which is deterministic).  ``L…L`` sums to the platform's
    cap floor, so a valid budget always has at least one candidate.

    Delegates to the planner's analytic ladder scan
    (:func:`repro.core.planner.best_ladder_under_budget`), which is
    float-for-float the historical in-line loop: zero Simulator runs, same
    farm model, same tie-breaking.
    """
    from repro.core.planner import best_ladder_under_budget
    from repro.experiments.platforms import config_list

    kernel = GemmKernel.square(phase.spec.nb, phase.precision)
    return best_ladder_under_budget(
        platform, kernel, phase.states, budget_w, configs=config_list(platform)
    )


def _pct(value: float, base: float) -> float:
    return (value - base) / base * 100.0 if base > 0 else 0.0


def run_govern(
    platform: str,
    op: str,
    precision: str,
    plan: FaultPlan,
    budget_w: Optional[float] = None,
    mix: str = "steady",
    outdir: Optional[str] = None,
    scheduler: str = "dmdas",
    seed: int = 0,
    scale: str = "tiny",
    allocator: str = "efficiency",
    power_period_s: float = 0.005,
    governor_config: Optional[GovernorConfig] = None,
    cache=None,
    stream: bool = False,
) -> GovernRun:
    """Compare a governed run against the static-best baseline.

    With ``cache`` set, the static baseline's totals are memoised under the
    full scenario identity (the static run is deterministic and writes no
    artefacts), so repeated governed studies skip it; the governed run —
    whose ledger and audit are the point — always executes.

    ``stream=True`` (requires ``outdir``) streams the governed run's
    telemetry — including every budget move — to ``events.jsonl`` live,
    with the online watchdogs (budget-violation rule included) attached.
    """
    if stream and outdir is None:
        raise ValueError("stream=True requires an outdir to stream into")
    phases = scenario_phases(platform, op, precision, scale, mix, cache=cache)
    if budget_w is None:
        budget_w = default_budget_w(platform)
    cfg = governor_config or GovernorConfig(allocator=allocator)
    if cfg.allocator != allocator:
        raise ValueError(
            f"allocator {allocator!r} disagrees with governor_config "
            f"({cfg.allocator!r})"
        )
    static_config, static_caps = static_best_config(
        platform, phases[0], budget_w
    )

    # ---------------------------------------------------------- static-best
    static_key = None
    static_vals: Optional[dict] = None
    if cache is not None:
        from repro.cache.experiment import operation_call

        try:
            call = operation_call(
                f"govern_static:{mix}", platform, phases[0].spec,
                static_config, phases[0].states, scheduler, seed, None,
            )
        except (AttributeError, TypeError, ValueError):
            call = None
        if call is not None:
            static_key = cache.key_for_call(call)
            hit, value = cache.load(static_key)
            if hit:
                static_vals = value
    if static_vals is None:
        results, measure = _run_phases(
            platform, phases, static_caps, scheduler, seed, power_period_s
        )
        static_vals = {
            "makespan_s": sum(r.makespan_s for r in results),
            "energy_j": measure.total_j,
            "gflops": (
                sum(r.total_flops for r in results)
                / sum(r.makespan_s for r in results) / 1e9
            ),
            "phase_makespans_s": [r.makespan_s for r in results],
        }
        if static_key is not None:
            cache.save(
                static_key, static_vals,
                label=f"govern-static/{platform}/{static_config.letters}/{mix}",
            )

    resolved = (
        plan.resolve(static_vals["makespan_s"]) if plan.relative else plan
    )

    # ------------------------------------------------------------- governed
    sim = Simulator()
    tracer = Tracer()
    node = build_platform(platform, sim, tracer)
    registry = MetricsRegistry(clock=sim)
    decisions = DecisionLog()
    runtime = RuntimeSystem(
        node, scheduler=scheduler, seed=seed, tracer=tracer,
        metrics=registry, decision_log=decisions, ewma_alpha=0.3,
    )
    injector = FaultInjector(runtime, resolved, metrics=registry)
    recovery = RecoveryManager(
        runtime, injector, metrics=registry, decisions=decisions,
    )
    out: Optional[Path] = None
    manifest: Optional[RunManifest] = None
    if outdir is not None:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            platform=platform,
            scheduler=scheduler,
            config=static_config.letters,
            gpu_caps_w=tuple(static_caps),
            op=phases[0].spec.op,
            n=phases[0].spec.n,
            nb=phases[0].spec.nb,
            precision=phases[0].precision,
            scale=scale,
            seed=seed,
            cpu_caps_w={},
            cache=cache.counts() if cache is not None else {},
            version=code_version(),
        )
    stream_writer = None
    watchdogs = None
    bus = None
    if stream:
        assert out is not None and manifest is not None
        manifest.write(out)
        bus, stream_writer, _aggregator, watchdogs = attach_stream(
            out, sim, manifest
        )
        runtime.bus = bus
        decisions.bus = bus
        injector.bus = bus
        recovery.bus = bus
    injector.arm()
    cap_reports = apply_caps_verified(
        node, static_caps, retries=cfg.cap_retries, strict=False
    )
    governor = PowerBudgetGovernor(
        node, runtime, budget_w, static_caps, config=cfg,
        metrics=registry, decisions=decisions,
    )
    recovery.listeners.append(governor)
    sampler = PowerSampler(node, runtime, period_s=power_period_s)
    sampler.blackouts.extend(resolved.dropout_windows())
    if bus is not None:
        sampler.bus = bus
        governor.bus = bus
        bus.subscribe(governor)
    else:
        # No stream: a private bus still carries power samples (and any
        # events) to the governor, with nothing written to disk.
        from repro.obs.stream import TelemetryBus

        private = TelemetryBus(clock=sim, batch=64)
        private.subscribe(governor)
        sampler.bus = private
        governor.bus = private
    meter = EnergyMeter(node)
    meter.start()
    governed: list[RunResult] = []
    graphs = []
    try:
        for k, phase in enumerate(phases):
            governor.set_workload(phase.precision, phase.spec.nb)
            if k == 0:
                governor.start()
            else:
                # Re-arm only the future: arm() schedules past-time faults
                # "now", which would re-fire phase-1 injections.
                injector.plan = FaultPlan(
                    faults=[
                        f for f in resolved.faults if f.time > sim.now
                    ],
                    name=resolved.name,
                    seed=resolved.seed,
                    relative=False,
                )
                governor.resume()
            sampler.start()
            graph = phase.spec.build_graph()
            graphs.append(graph)
            governed.append(runtime.run(graph, reset_energy=False))
    finally:
        if stream_writer is not None:
            stream_writer.close()
    measure = meter.stop()

    # ---------------------------------------------------------------- audit
    replay_mismatches = len(decisions.verify_replay())
    audit = {
        "all_tasks_done": all(
            t.state is TaskState.DONE for g in graphs for t in g.tasks
        ),
        # worker.n_tasks is cumulative across phases, so the last result's
        # counts must equal the scenario's total task count exactly.
        "executed_exactly_once": (
            sum(governed[-1].worker_tasks.values())
            == sum(r.n_tasks for r in governed)
        ),
        "decision_replay_mismatches": replay_mismatches,
        "budget_respected": (
            governor.max_total_cap_w
            <= budget_w + cfg.budget_tolerance_w
        ),
        "no_spurious_safe_mode": bool(resolved) or not governor.safe_mode,
    }

    gov_makespan = sum(r.makespan_s for r in governed)
    gov_energy = measure.total_j
    fault_events = injector.events + recovery.events
    summary = {
        "platform": platform,
        "mix": mix,
        "scale": scale,
        "scheduler": scheduler,
        "seed": seed,
        "budget_w": budget_w,
        "allocator": allocator,
        "phases": [
            {"op": p.spec.op, "n": p.spec.n, "nb": p.spec.nb,
             "precision": p.precision}
            for p in phases
        ],
        "plan": {
            "name": resolved.name,
            "seed": resolved.seed,
            "n_faults": len(resolved),
            "faults": [f.to_record() for f in resolved.faults],
        },
        # Explicit key order: the cached payload round-trips through
        # sorted-key JSON, and govern.json must be byte-identical warm vs
        # cold.
        "static": {
            "config": static_config.letters,
            "caps_w": list(static_caps),
            "makespan_s": static_vals["makespan_s"],
            "energy_j": static_vals["energy_j"],
            "gflops": static_vals["gflops"],
        },
        "governed": {
            "makespan_s": gov_makespan,
            "energy_j": gov_energy,
            "gflops": (
                sum(r.total_flops for r in governed) / gov_makespan / 1e9
            ),
            "final_caps": governor.caps(),
        },
        "comparison": {
            "makespan_pct": _pct(gov_makespan, static_vals["makespan_s"]),
            "energy_pct": _pct(gov_energy, static_vals["energy_j"]),
        },
        "governor": governor.stats(),
        "budget_moves": governor.moves,
        "faults_injected": injector.n_injected,
        "recovery": recovery.stats(),
        "cap_reports": [r.to_record() for r in cap_reports],
        "power_samples_dropped": sampler.n_dropped,
        "audit": audit,
    }

    if out is not None:
        assert manifest is not None
        if not stream:
            manifest.write(out)
        (out / RESULT_FILENAME).write_text(json.dumps(result_record(
            governed[-1],
            extra={
                "measured_duration_s": measure.duration_s,
                "measured_total_j": gov_energy,
                "static_makespan_s": static_vals["makespan_s"],
                "static_energy_j": static_vals["energy_j"],
            },
        ), indent=2) + "\n")
        (out / GOVERN_FILENAME).write_text(json.dumps(summary, indent=2) + "\n")
        with open(out / FAULTS_FILENAME, "w") as fh:
            for rec in sorted(fault_events, key=lambda e: e["t"]):
                fh.write(json.dumps(rec) + "\n")
        decisions.write_jsonl(str(out / DECISIONS_FILENAME))
        if not stream:
            write_events_jsonl(
                str(out / EVENTS_FILENAME), tracer, decisions, sampler,
                fault_events,
            )
        write_enriched_chrome_trace(
            str(out / TRACE_FILENAME), tracer, sampler, decisions
        )
        if cache is not None:
            cache.publish_metrics(registry)
        from repro.obs.stream import publish_run_info, run_info_from_manifest

        publish_run_info(registry, run_info_from_manifest(manifest))
        (out / METRICS_FILENAME).write_text(registry.to_prometheus())

    return GovernRun(
        outdir=out, plan=resolved, static_config=static_config,
        governed=governed, summary=summary, registry=registry,
        decisions=decisions, tracer=tracer, sampler=sampler,
        injector=injector, recovery=recovery, governor=governor,
        anomalies=tuple(watchdogs.raised) if watchdogs is not None else (),
    )


def _run_phases(
    platform: str,
    phases: list[Phase],
    caps_w: list[float],
    scheduler: str,
    seed: int,
    power_period_s: float,
):
    """The static-best run: no injector, no governor, no telemetry.

    It shares the governed run's power sampler (its ticks are sim events)
    and energy meter; nothing reads a tracer, metrics or decision log here.
    """
    sim = Simulator()
    node = build_platform(platform, sim)
    runtime = RuntimeSystem(node, scheduler=scheduler, seed=seed,
                            ewma_alpha=0.3)
    apply_caps_verified(node, caps_w, strict=False)
    sampler = PowerSampler(node, runtime, period_s=power_period_s)
    meter = EnergyMeter(node)
    meter.start()
    results = []
    for phase in phases:
        sampler.start()
        results.append(runtime.run(phase.spec.build_graph(),
                                   reset_energy=False))
    return results, meter.stop()


def render_govern_summary(summary: dict) -> str:
    """Terminal-friendly rendering of a govern summary."""
    phases = " → ".join(
        f"{p['op']}/{p['precision']}" for p in summary["phases"]
    )
    lines = [
        f"govern: {phases} on {summary['platform']} "
        f"({summary['scheduler']}, seed {summary['seed']}, "
        f"mix {summary['mix']})",
        f"budget: {summary['budget_w']:.0f} W, allocator "
        f"{summary['allocator']}, static-best [{summary['static']['config']}]",
        f"plan: {summary['plan']['name'] or 'custom'} "
        f"({summary['plan']['n_faults']} faults, "
        f"{summary['faults_injected']} events injected)",
        f"static:   {summary['static']['makespan_s']:.4f}s, "
        f"{summary['static']['energy_j']:.1f} J",
        f"governed: {summary['governed']['makespan_s']:.4f}s, "
        f"{summary['governed']['energy_j']:.1f} J",
        f"vs static: makespan {summary['comparison']['makespan_pct']:+.2f} %, "
        f"energy {summary['comparison']['energy_pct']:+.2f} %",
    ]
    gov = summary["governor"]
    moved = ", ".join(
        f"{k}={v}" for k, v in gov["moves_by_kind"].items()
    ) or "(none)"
    lines.append(
        f"governor: {gov['ticks']} ticks, {gov['moves']} moves [{moved}], "
        f"peak caps {gov['max_total_cap_w']:.1f} W"
    )
    if gov["safe_mode"]:
        lines.append(f"SAFE MODE: {gov['safe_mode_reason']}")
    rec = summary["recovery"]
    lines.append(
        "recovery: "
        + ", ".join(f"{k}={v}" for k, v in rec.items() if v)
        if any(rec.values()) else "recovery: (no actions needed)"
    )
    audit = summary["audit"]
    ok = all(bool(v) if isinstance(v, bool) else v == 0 for v in audit.values())
    lines.append(
        "audit: " + ("PASS" if ok else "FAIL")
        + " (" + ", ".join(f"{k}={v}" for k, v in audit.items()) + ")"
    )
    return "\n".join(lines) + "\n"
