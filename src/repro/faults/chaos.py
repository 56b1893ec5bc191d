"""Chaos runs: one cap configuration executed under a fault plan.

:func:`run_chaos` is the ``repro chaos`` backend.  It runs the operation
twice with the same ``(platform, config, scheduler, seed)``:

1. **baseline** — fault-free and lean: the same run spec without the
   plan or the observers (tracer, metrics, decision log), which report
   nothing the comparison reads; it keeps the power sampler, whose ticks
   are sim events.  Its makespan resolves relative fault plans;
2. **faulted** — the same run with the injector and recovery manager armed.

The faulted run is audited: every task must complete exactly once, the
decision log must replay cleanly and cover all tasks.  With ``outdir`` set,
the usual traced-run artefacts are written plus ``faults.jsonl`` (the
fault/recovery event stream) and ``chaos.json`` (the degradation summary);
``events.jsonl`` carries the fault events inline, and the tracer's
``faults`` track puts them on their own Perfetto row.

Both runs come from one :class:`~repro.core.runs.RunSpec` through the
shared :func:`~repro.core.runs.compare` harness, and both are
bit-deterministic: re-running with the same ``(seed, plan)`` reproduces
every event byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Optional

from repro.core.capconfig import CapConfig, CapStates
from repro.core.runs import (
    Audited,
    RunSpec,
    audit_line,
    compare,
    comparison_lines,
    recovery_line,
)
from repro.core.tradeoff import OperationSpec
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.obs.decisions import DecisionLog
from repro.obs.exporters import CHAOS_FILENAME
from repro.obs.metrics import MetricsRegistry
from repro.runtime.engine import RunResult
from repro.sim import Tracer
from repro.tools.powertrace import PowerSampler


@dataclass
class ChaosRun(Audited):
    """Everything produced by one chaos comparison.

    ``baseline`` is ``None`` when the fault-free baseline came from the
    experiment cache (its numbers are in ``summary["baseline"]`` either way).
    """

    outdir: Optional[Path]
    plan: FaultPlan  # resolved (absolute times)
    baseline: Optional[RunResult]
    faulted: RunResult
    summary: dict
    registry: MetricsRegistry
    decisions: DecisionLog
    tracer: Tracer
    sampler: PowerSampler
    injector: FaultInjector
    recovery: RecoveryManager
    #: Watchdog anomalies raised during a streamed faulted run (empty
    #: otherwise).
    anomalies: tuple = ()


def run_chaos(
    platform: str,
    spec: OperationSpec,
    config: CapConfig,
    states: CapStates,
    plan: FaultPlan,
    outdir: Optional[str] = None,
    scheduler: str = "dmdas",
    seed: int = 0,
    cpu_caps: Optional[Mapping[int, float]] = None,
    scale: str = "custom",
    power_period_s: float = 0.005,
    cap_retries: int = 3,
    cache=None,
    stream: bool = False,
) -> ChaosRun:
    """Run ``spec`` under ``config`` with and without ``plan``'s faults.

    With ``cache`` set, the fault-free baseline's numbers are memoised
    under the full run identity (the baseline run itself is deterministic
    and its artefacts are never written), so repeated chaos studies of the
    same configuration skip the baseline simulation entirely; the faulted
    run — whose artefacts and audit are the point — always executes.

    ``stream=True`` (requires ``outdir``) streams the *faulted* run's
    telemetry — including fault injections and recovery actions — to
    ``events.jsonl`` live, with online watchdogs attached; the fault-free
    baseline stays unstreamed, it only anchors the degradation numbers.
    """
    baseline = RunSpec(
        platform, spec, config, states, scheduler=scheduler, seed=seed,
        cpu_caps=cpu_caps, scale=scale, power_period_s=power_period_s,
        cap_retries=cap_retries,
    )
    treated = replace(baseline, observe=True)

    def summarize(cmp) -> dict:
        run = cmp.run
        faulted = run.results[0]
        decisions = run.decisions
        # A cap mismatch is expected — not an audit failure — when the plan
        # deliberately clamps caps; verify-after-set still has to *report*.
        clamp_expected = bool(cmp.plan.by_kind("cap-silent-clamp"))
        return {
            "platform": platform,
            "op": spec.op,
            "n": spec.n,
            "nb": spec.nb,
            "precision": spec.precision,
            "config": config.letters,
            "scheduler": scheduler,
            "seed": seed,
            "plan": cmp.plan_record(),
            "baseline": cmp.baseline_block(),
            "faulted": cmp.treated_block(),
            "degradation": cmp.change_pct(),
            **cmp.fault_record(),
            "audit": {
                "all_tasks_done": run.all_tasks_done(),
                "executed_exactly_once": run.executed_exactly_once(),
                "decisions_cover_all_tasks": (
                    len({r.tid for r in decisions}) == faulted.n_tasks
                ),
                "decision_replay_mismatches": len(decisions.verify_replay()),
                "caps_converged": (
                    all(r.verified for r in run.cap_reports) or clamp_expected
                ),
            },
        }

    cmp, summary = compare(
        baseline, treated, plan, [spec], summarize, CHAOS_FILENAME,
        cache_name="chaos_baseline",
        cache_label=f"chaos-baseline/{platform}/{config.letters}",
        baseline_prefix="baseline", outdir=outdir, stream=stream, cache=cache,
    )
    run = cmp.run
    return ChaosRun(
        outdir=run.outdir, plan=cmp.plan,
        baseline=cmp.baseline_results[0] if cmp.baseline_results else None,
        faulted=run.results[0], summary=summary, registry=run.registry,
        decisions=run.decisions, tracer=run.tracer, sampler=run.sampler,
        injector=run.injector, recovery=run.recovery,
        anomalies=tuple(run.anomalies),
    )


def render_chaos_summary(summary: dict) -> str:
    """Terminal-friendly rendering of a chaos summary."""
    lines = [
        f"chaos: {summary['op']} n={summary['n']} {summary['precision']} "
        f"on {summary['platform']} [{summary['config']}] "
        f"({summary['scheduler']}, seed {summary['seed']})",
        *comparison_lines(summary, ("baseline", "faulted"), "degradation",
                          "degradation"),
        recovery_line(summary),
    ]
    for report in summary["cap_reports"]:
        if report["attempts"] > 1 or not report["verified"]:
            lines.append(
                f"cap {report['device']}: requested {report['requested_w']:.0f} W, "
                f"applied {report['applied_w']:.0f} W "
                f"({report['attempts']} attempts, "
                f"{'verified' if report['verified'] else 'MISMATCH'})"
            )
    lines.append(audit_line(summary))
    return "\n".join(lines) + "\n"
