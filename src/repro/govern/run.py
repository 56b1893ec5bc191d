"""Governed vs static-best comparison runs (``repro run --allocator``).

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
reports makespans, flops and joules.  Both runs are built from
:class:`~repro.core.runs.RunSpec` declarations and compared by the
:func:`~repro.core.runs.compare` harness the chaos runs share; both are
bit-deterministic per (seed, plan): re-running reproduces
``govern.json`` and the budget-move ledger byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Optional

from repro.core.capconfig import CapConfig, CapStates
from repro.core.runs import (
    POWER_PERIOD_S,
    Audited,
    Run,
    RunSpec,
    audit_line,
    compare,
    comparison_lines,
    recovery_line,
)
from repro.core.tradeoff import OperationSpec
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.plan import FaultPlan
from repro.govern.controller import CAP_RETRIES
from repro.hardware.catalog import gpu_spec, platform_spec
from repro.kernels.gemm import GemmKernel
from repro.obs.exporters import GOVERN_FILENAME
from repro.obs.stream import BUDGET_TOLERANCE_W

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
class GovernRun(Audited):
    """Everything produced by one govern comparison: the governed ``run``
    (its parts read through :class:`~repro.core.runs.Audited`), the plan,
    the static-best configuration and the summary."""

    run: Run
    plan: FaultPlan  # resolved (absolute times)
    static_config: CapConfig
    summary: dict

    governed = property(attrgetter("run.results"))
    governor = property(attrgetter("run.governor"))


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
    spec = platform_spec(platform)
    return round(0.8 * sum([gpu_spec(spec.gpu_model).cap_max_w] * spec.n_gpus), 1)


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
    power_period_s: float = POWER_PERIOD_S,
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

    An unknown allocator and a budget that is not finite or is below the
    platform floor raise :class:`~repro.core.runs.RunSpecError`.
    """
    phases = scenario_phases(platform, op, precision, scale, mix, cache=cache)
    governed = RunSpec(
        platform, phases[0].spec, None, phases[0].states, scheduler=scheduler,
        seed=seed, scale=scale, observe=True, cap_retries=CAP_RETRIES,
        power_period_s=power_period_s, ewma_alpha=0.3, governor=allocator,
        budget_w=budget_w,
    ).validate()
    budget = governed.budget_w
    static_config, static_caps = static_best_config(platform, phases[0], budget)
    static = static_spec(platform, phases, static_config, scheduler, seed,
                         power_period_s)
    governed = replace(governed, config=static_config)

    def summarize(cmp) -> dict:
        run = cmp.run
        governor = run.governor
        return {
            "platform": platform,
            "mix": mix,
            "scale": scale,
            "scheduler": scheduler,
            "seed": seed,
            "budget_w": budget,
            "allocator": allocator,
            "phases": [
                {"op": p.spec.op, "n": p.spec.n, "nb": p.spec.nb,
                 "precision": p.precision}
                for p in phases
            ],
            "plan": cmp.plan_record(),
            "static": {
                "config": static_config.letters,
                "caps_w": list(static_caps),
                **cmp.baseline_block(),
            },
            "governed": {**cmp.treated_block(), "final_caps": governor.caps()},
            "comparison": cmp.change_pct(),
            "governor": governor.stats(),
            "budget_moves": governor.moves,
            **cmp.fault_record(),
            "audit": {
                "all_tasks_done": run.all_tasks_done(),
                "executed_exactly_once": run.executed_exactly_once(),
                "decision_replay_mismatches": len(run.decisions.verify_replay()),
                "budget_respected": (
                    governor.max_total_cap_w
                    <= budget + BUDGET_TOLERANCE_W
                ),
                "no_spurious_safe_mode": bool(cmp.plan) or not governor.safe_mode,
            },
        }

    cmp, summary = compare(
        static, governed, plan, [p.spec for p in phases], summarize,
        GOVERN_FILENAME,
        cache_name=f"govern_static:{mix}",
        cache_label=f"govern-static/{platform}/{static_config.letters}/{mix}",
        baseline_prefix="static", outdir=outdir, stream=stream, cache=cache,
    )
    return GovernRun(run=cmp.run, plan=cmp.plan, static_config=static_config,
                     summary=summary)


def static_spec(
    platform: str,
    phases: list[Phase],
    config: CapConfig,
    scheduler: str,
    seed: int,
    power_period_s: float,
) -> RunSpec:
    """The static-best run: no injector, no governor, no telemetry.

    It shares the governed run's power sampler (its ticks are sim events)
    and history-model smoothing; nothing reads a tracer, metrics or
    decision log here.
    """
    return RunSpec(
        platform, phases[0].spec, config, phases[0].states,
        scheduler=scheduler, seed=seed, power_period_s=power_period_s,
        ewma_alpha=0.3,
    )


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
        *comparison_lines(summary, ("static", "governed"), "comparison",
                          "vs static"),
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
    lines += [recovery_line(summary), audit_line(summary)]
    return "\n".join(lines) + "\n"
