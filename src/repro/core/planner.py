"""Objectives, the exact analytic sweep replay and the config-grid scans.

1. **Exact analytic sweep replay** — :func:`analytic_sweep_points` replays
   the float-operation sequence of :func:`repro.core.sweep.sweep_gemm`
   (operating point, roofline duration, energy accumulation, the NVML
   millijoule quantisation) without building a Simulator.  The replay is
   *bit-identical* to the simulated sweep for any :class:`GPUSpec`, so the
   kernel-level half of the paper (Table I/II ``P_best`` derivation, the
   advisor's cap states) costs **zero** simulations with no fidelity caveat.

2. **Config-grid scan** — :func:`plan_configs` simulates every
   configuration of a grid (the paper's grids hold 5 or 9) and returns the
   best under an objective, ties breaking toward the earlier grid position.

3. **Analytic ladder scan** — :func:`best_ladder_under_budget` is the
   governor's model-evaluated static-best scan under a watt budget.

Objectives are pluggable (:data:`OBJECTIVES`): ``efficiency`` (Gflop/s/W,
alias ``gflops_per_w``) reproduces the paper; ``gflops``, ``energy``,
``makespan``, ``edp`` and ``ed2p`` are the Patrou et al. metric family
(arXiv 2505.21758) ready for the H100-class fleet entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from repro.cluster.farm import FarmGPU, GPUFarm
from repro.core.capconfig import CapConfig, CapStates
from repro.core.efficiency import ConfigMetrics
from repro.core.sweep import SweepPoint, cap_grid
from repro.core.tradeoff import OperationSpec, run_config_set
from repro.hardware.catalog import gpu_spec, platform_spec
from repro.hardware.specs import GPUSpec
from repro.kernels.gemm import GemmKernel
from repro.kernels.roofline import roofline_time

# ------------------------------------------------------------------ objectives


@dataclass(frozen=True)
class Objective:
    """One pluggable figure of merit over a finished run.

    ``score`` evaluates exact :class:`ConfigMetrics` with the *same float
    expressions* the advisor uses, so planner and service rank identically.
    ``sweep_score`` scores one kernel-sweep point.
    """

    name: str
    maximise: bool
    score: Callable[[ConfigMetrics], float]
    sweep_score: Callable[[SweepPoint], float]


OBJECTIVES: dict[str, Objective] = {
    obj.name: obj
    for obj in (
        Objective("efficiency", True, lambda m: m.efficiency, lambda p: p.efficiency),
        Objective("gflops", True, lambda m: m.gflops, lambda p: p.gflops),
        Objective("energy", False, lambda m: m.energy_j, lambda p: p.energy_j),
        Objective("makespan", False, lambda m: m.makespan_s, lambda p: p.time_s),
        Objective("edp", False,
                  lambda m: m.energy_j * m.makespan_s, lambda p: p.energy_j * p.time_s),
        Objective("ed2p", False,
                  lambda m: m.energy_j * m.makespan_s ** 2,
                  lambda p: p.energy_j * p.time_s ** 2),
    )
}

#: The paper's figure of merit under its other common name.
OBJECTIVES["gflops_per_w"] = OBJECTIVES["efficiency"]


def get_objective(name: str) -> Objective:
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise ValueError(
            f"unknown objective {name!r}; have {sorted(OBJECTIVES)}"
        ) from None


def _rank(obj: Objective, score: float) -> float:
    """Map a score to please-minimise order (ties compare equal)."""
    return -score if obj.maximise else score


def best_sweep_point(points: Sequence[SweepPoint], objective: str = "efficiency") -> SweepPoint:
    """The sweep point optimising ``objective`` (first wins on exact ties)."""
    if not points:
        raise ValueError("empty sweep")
    obj = get_objective(objective)
    if obj.maximise:
        return max(points, key=obj.sweep_score)
    return min(points, key=obj.sweep_score)


# ------------------------------------------------- exact analytic sweep replay


def analytic_sweep_points(
    model: str | GPUSpec,
    n: int,
    precision: str,
    step_pct: float = 2.0,
    m: Optional[int] = None,
    k: Optional[int] = None,
) -> list[SweepPoint]:
    """Replay a :func:`~repro.core.sweep.sweep_gemm` without a Simulator.

    The simulated sweep advances time only while the kernel runs, so the
    device's energy integral is a running sum of ``busy_power * elapsed``
    terms and the NVML counter quantises it to integer millijoules before
    each point's subtraction.  Replaying exactly that float-operation
    sequence — same operating point, same roofline duration, same
    ``t0 + duration`` event timestamp, same ``int(round(E * 1000))``
    quantisation — produces **bit-identical** :class:`SweepPoint` lists
    (asserted by tests for every catalog model and for ad-hoc specs).
    """
    spec = gpu_spec(model) if isinstance(model, str) else model
    kernel = GemmKernel(m or n, n, k or n, precision)
    profile = spec.power_profiles[precision]
    act = kernel.activity(spec)
    util = kernel.utilization(spec)
    now = 0.0        # Simulator clock
    energy = 0.0     # GPUDevice energy integral (J)
    points: list[SweepPoint] = []
    for cap in cap_grid(spec, step_pct):
        f = profile.freq_at_cap(cap, act)
        busy_w = profile.power(f, act)
        gflops = spec.peak_gflops[precision] * util * profile.perf_scale(f)
        duration = roofline_time(
            kernel.flops, kernel.traffic_bytes, gflops,
            spec.mem_bw_gbs, spec.launch_overhead_s,
        )
        e0_mj = int(round(energy * 1000))
        t0 = now
        now = t0 + duration          # the end_kernel event timestamp
        elapsed = now - t0
        energy = energy + busy_w * elapsed
        energy_j = (int(round(energy * 1000)) - e0_mj) / 1000.0
        points.append(
            SweepPoint(
                cap_w=cap,
                cap_pct_tdp=100.0 * cap / spec.tdp_w,
                time_s=elapsed,
                gflops=kernel.flops / elapsed / 1e9,
                power_w=energy_j / elapsed,
                energy_j=energy_j,
            )
        )
    return points


# --------------------------------------------------------- config-grid scan


@dataclass(frozen=True)
class PlanReport:
    """What a grid scan cost: configurations posed and simulations run."""

    objective: str
    n_configs: int
    #: Configurations simulated; the rest were cache hits.
    n_simulated: int


@dataclass(frozen=True)
class PlanResult:
    """Winner of a grid scan plus every configuration's metrics."""

    winner: str
    metrics: ConfigMetrics
    evaluated: Mapping[str, ConfigMetrics]
    report: PlanReport


def plan_configs(
    platform: str,
    spec: OperationSpec,
    configs: Sequence[CapConfig],
    states: CapStates,
    objective: str = "efficiency",
    scheduler: str = "dmdas",
    seed: int = 0,
    cpu_caps: Optional[Mapping[int, float]] = None,
    jobs: int = 1,
    cache=None,
) -> PlanResult:
    """The grid's best configuration under ``objective``.

    Evaluates every configuration with
    :func:`~repro.core.tradeoff.run_config_set` (``jobs`` and ``cache`` go
    straight through) and keeps the best score, ties breaking toward the
    earlier grid position.
    """
    obj = get_objective(objective)
    configs = list(configs)
    if not configs:
        raise ValueError("empty configuration grid")
    letters = [c.letters for c in configs]
    if len(set(letters)) != len(letters):
        raise ValueError("duplicate configurations in grid")
    hits_before = cache.hits if cache is not None else 0
    evaluated = run_config_set(
        platform, spec, configs, states, scheduler=scheduler, seed=seed,
        cpu_caps=cpu_caps, jobs=jobs, cache=cache,
    )
    n_hits = cache.hits - hits_before if cache is not None else 0
    _, best = min(
        (_rank(obj, obj.score(evaluated[lt])), i) for i, lt in enumerate(letters)
    )
    winner = letters[best]
    return PlanResult(
        winner=winner,
        metrics=evaluated[winner],
        evaluated=evaluated,
        report=PlanReport(
            objective=obj.name,
            n_configs=len(configs),
            n_simulated=len(configs) - n_hits,
        ),
    )


# ------------------------------------------------------ analytic ladder scans


def best_ladder_under_budget(
    platform: str,
    kernel: GemmKernel,
    states: CapStates,
    budget_w: float,
    configs: Optional[Sequence[CapConfig]] = None,
) -> tuple[CapConfig, list[float]]:
    """Best feasible ladder configuration under a watt budget (analytic).

    The governor's static-best scan: walk the grid in order, keep
    configurations whose cap sum fits the budget, rank by the analytic farm
    efficiency of the phase kernel, ties breaking toward the earlier grid
    position.  Entirely model-evaluated (no Simulator runs) and
    float-for-float identical to the historical in-line scan in
    ``repro.govern.run`` — which now delegates here.
    """
    pspec = platform_spec(platform)
    if configs is None:
        from repro.core.capconfig import standard_configs

        configs = standard_configs(pspec.n_gpus)
    farm = GPUFarm(
        [FarmGPU(pspec.gpu_model, kernel) for _ in range(pspec.n_gpus)]
    )
    best: Optional[tuple[CapConfig, list[float]]] = None
    best_eff = -1.0
    for config in configs:
        watts = config.watts(states)
        if sum(watts) > budget_w + 1e-6:
            continue
        eff = farm.total_efficiency(watts)
        if eff > best_eff:
            best, best_eff = (config, watts), eff
    if best is None:
        raise ValueError(
            f"budget {budget_w:.0f} W below the platform floor "
            f"{farm.min_budget():.0f} W"
        )
    return best
