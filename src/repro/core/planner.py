"""Analytic bound-and-prune sweep planner.

The layer above the simulator brute-forces: every cap-sweep point and every
cap configuration of a grid costs one full discrete-event simulation, even
though the analytic GPU operating-point and kernel models can predict most
outcomes closely — and some of them *exactly*.  This module plans a grid
evaluation so that only configurations that can still win are simulated:

1. **Exact analytic sweep replay** — :func:`analytic_sweep_points` replays
   the float-operation sequence of :func:`repro.core.sweep.sweep_gemm`
   (operating point, roofline duration, energy accumulation, the NVML
   millijoule quantisation) without building a Simulator.  The replay is
   *bit-identical* to the simulated sweep for any :class:`GPUSpec`, so the
   kernel-level half of the paper (Table I/II ``P_best`` derivation, the
   advisor's cap states) costs **zero** simulations with no fidelity caveat.

2. **Vectorized config-grid estimates** — :meth:`OperationModel.estimate`
   prices a whole configuration grid (makespan and energy per config) from
   the tile-kernel work model in a handful of numpy array expressions.

3. **Bound-and-prune config planning** — :func:`plan_configs` turns the
   estimates into score *bounds* (estimate divided/multiplied by audited
   slack factors), resolves cache hits up front in one batched pass,
   simulates the most promising survivors first in amortizing chunks, and
   prunes every configuration whose most optimistic achievable score is
   *strictly* worse than an exactly-known incumbent.  Pruned configurations
   therefore cannot win or tie, so the returned winner and its
   :class:`~repro.core.efficiency.ConfigMetrics` are byte-identical to an
   exhaustive scan (enforced by ``tests/core/test_planner.py`` and
   :func:`audit_plan`; see ``docs/performance.md`` for the bound derivation
   and the cases where pruning is disabled).

Objectives are pluggable (:data:`OBJECTIVES`): ``efficiency`` (Gflop/s/W,
alias ``gflops_per_w``) reproduces the paper; ``gflops``, ``energy``,
``makespan``, ``edp`` and ``ed2p`` are the Patrou et al. metric family
(arXiv 2505.21758) ready for the H100-class fleet entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.cluster.farm import FarmGPU, GPUFarm
from repro.core.capconfig import CapConfig, CapStates
from repro.core.efficiency import ConfigMetrics
from repro.core.sweep import SweepPoint, cap_grid
from repro.core.tradeoff import OperationSpec, run_operation
from repro.hardware.catalog import gpu_spec, platform_spec
from repro.hardware.cpu import SPIN_FACTOR
from repro.hardware.dvfs import cpu_freq_at_cap
from repro.hardware.gpu import GPUDevice
from repro.hardware.specs import GPUSpec
from repro.kernels.gemm import GemmKernel
from repro.kernels.roofline import roofline_time
from repro.kernels.tile_kernels import (
    _CPU_FACTOR as _CPU_FACTOR_TABLE,
    CPU_TASK_OVERHEAD_S as CPU_OVERHEAD_S,
    TileOp,
)
from repro.sim import Simulator

# ------------------------------------------------------------------ objectives


@dataclass(frozen=True)
class Objective:
    """One pluggable figure of merit over a finished run.

    ``score`` evaluates exact :class:`ConfigMetrics` with the *same float
    expressions* the advisor uses, so planner and service rank identically.
    ``optimistic`` maps lower bounds ``(t_lo, e_lo)`` on makespan and energy
    (plus the operation's total flops) to the best score any run respecting
    those bounds could achieve — the quantity pruning compares against an
    exact incumbent.  ``sweep_score`` scores one kernel-sweep point.
    """

    name: str
    maximise: bool
    score: Callable[[ConfigMetrics], float]
    optimistic: Callable[[float, float, float], float]
    sweep_score: Callable[[SweepPoint], float]


OBJECTIVES: dict[str, Objective] = {
    obj.name: obj
    for obj in (
        Objective(
            "efficiency", True,
            lambda m: m.efficiency,
            lambda t_lo, e_lo, flops: flops / e_lo / 1e9,
            lambda p: p.efficiency,
        ),
        Objective(
            "gflops", True,
            lambda m: m.gflops,
            lambda t_lo, e_lo, flops: flops / t_lo / 1e9,
            lambda p: p.gflops,
        ),
        Objective(
            "energy", False,
            lambda m: m.energy_j,
            lambda t_lo, e_lo, flops: e_lo,
            lambda p: p.energy_j,
        ),
        Objective(
            "makespan", False,
            lambda m: m.makespan_s,
            lambda t_lo, e_lo, flops: t_lo,
            lambda p: p.time_s,
        ),
        Objective(
            "edp", False,
            lambda m: m.energy_j * m.makespan_s,
            lambda t_lo, e_lo, flops: e_lo * t_lo,
            lambda p: p.energy_j * p.time_s,
        ),
        Objective(
            "ed2p", False,
            lambda m: m.energy_j * m.makespan_s ** 2,
            lambda t_lo, e_lo, flops: e_lo * t_lo ** 2,
            lambda p: p.energy_j * p.time_s ** 2,
        ),
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


# ------------------------------------------------------- config-grid estimates

#: Audited slack factors between the analytic work-model estimate and the
#: simulated ground truth.  The estimator ignores data transfers and
#: scheduler imperfection (which slow the real run) and execution noise (a
#: per-task lognormal with sigma 0.015, either direction), so the truth can
#: land on either side of the estimate; bound-soundness tests and the bench
#: audit check ``estimate/slack <= simulated <= estimate * slack`` on every
#: replayed configuration.  Measured sim/estimate spreads across the
#: fig3-small, fig3-tiny and H100 3^4-enumerate grids: makespan in
#: [0.93, 1.66] (the high end is small dependency-bound grids), energy in
#: [0.97, 1.14] — both slacks keep >20 % margin beyond the observed worst.
MAKESPAN_SLACK = 2.0
ENERGY_SLACK = 1.4

_STATE_INDEX = {"H": 0, "B": 1, "L": 2}


class OperationModel:
    """Analytic work model of one (platform, operation, CPU caps) instance.

    Prices every configuration of a grid without simulating: per-kind tile
    durations and busy powers at each of the three cap states come from the
    same :class:`TileOp` ground-truth models the runtime uses, the task
    counts from the operation's real task graph, and the grid evaluation is
    a few numpy gathers over the (config, gpu) state matrix.
    """

    def __init__(
        self,
        platform: str,
        spec: OperationSpec,
        states: CapStates,
        cpu_caps: Optional[Mapping[int, float]] = None,
    ) -> None:
        pspec = platform_spec(platform)
        self.gpu_spec = gpu_spec(pspec.gpu_model)
        self.n_gpus = pspec.n_gpus
        graph = spec.build_graph()
        self.counts = graph.counts_by_kind()
        self.total_flops = graph.total_flops()
        self.ops = {kind: TileOp(kind, spec.nb, spec.precision) for kind in self.counts}

        # Per-kind (duration, busy power) at each cap state, from a scratch
        # device per distinct cap (the same analytic models the runtime's
        # ground truth uses).
        state_caps = [states.h_w, states.b_w, states.l_w]
        self._t_state: dict[str, np.ndarray] = {}
        self._p_state: dict[str, np.ndarray] = {}
        devices: dict[float, GPUDevice] = {}
        for cap in state_caps:
            if cap not in devices:
                dev = GPUDevice(self.gpu_spec, 0, Simulator())
                dev.set_power_limit(cap)
                devices[cap] = dev
        for kind, op in self.ops.items():
            if not op.runs_on_gpu:
                continue
            self._t_state[kind] = np.array(
                [op.time_on_gpu(devices[cap]) for cap in state_caps]
            )
            self._p_state[kind] = np.array(
                [op.power_on_gpu(devices[cap]) for cap in state_caps]
            )

        # CPU side: per-package frequency under the RAPL caps, worker count
        # (one core per GPU drives its stream; the rest run CPU tasks), and
        # the busy-wait base power every package pays for the whole run.
        cpu_specs = pspec.cpu_specs()
        n_cores = sum(c.n_cores for c in cpu_specs)
        self.n_cpu_workers = max(1, n_cores - self.n_gpus)
        caps = dict(cpu_caps or {})
        base_cpu_w = 0.0
        total_rate = 0.0
        self._cpu_dyn_w = 0.0
        for i, cspec in enumerate(cpu_specs):
            freq = 1.0
            if i in caps and cspec.supports_capping:
                freq = cpu_freq_at_cap(
                    caps[i], cspec.idle_w, cspec.tdp_w, cspec.f_min
                )
            dyn = cspec.per_core_w * freq ** 3
            base_cpu_w += cspec.idle_w + cspec.n_cores * SPIN_FACTOR * dyn
            rate = cspec.core_gflops[spec.precision] * freq
            total_rate += cspec.n_cores * rate
            self._cpu_dyn_w += cspec.n_cores * (1.0 - SPIN_FACTOR) * dyn
        self._cpu_core_gflops = total_rate / max(1, n_cores)
        self._cpu_dyn_w /= max(1, n_cores)  # busy increment of a mean core

        #: Node power with every worker spinning and both device classes idle
        #: — paid for the entire makespan regardless of configuration.
        self.base_power_w = base_cpu_w + self.n_gpus * self.gpu_spec.idle_w

        # Critical-path time with every task on its fastest device, given the
        # fastest GPU cap state present in a configuration (dependency-bound
        # operations — POTRF panels — run far above the area bound, and this
        # term is what keeps their estimate honest).  Only the *fastest*
        # state matters, so three path computations cover every config.
        self._cpath_by_state: list[float] = []
        for state_i in range(3):
            def weight(task, state_i=state_i):
                op = self.ops[task.op.kind]
                cpu_t = (
                    op.flops
                    / (self._cpu_core_gflops * _CPU_FACTOR_TABLE[op.kind] * 1e9)
                    + CPU_OVERHEAD_S
                )
                if not op.runs_on_gpu:
                    return cpu_t
                return min(float(self._t_state[op.kind][state_i]), cpu_t)

            self._cpath_by_state.append(graph.critical_path(weight)[0])

    def estimate(self, configs: Sequence[CapConfig]) -> dict[str, tuple[float, float]]:
        """``{letters: (makespan_est_s, energy_est_j)}`` for a config grid."""
        s = np.array(
            [[_STATE_INDEX[ch] for ch in c.letters] for c in configs], dtype=int
        )
        n_configs = len(configs)
        t_gpu = np.zeros(n_configs)
        e_gpu = np.zeros(n_configs)
        t_cpu_work = 0.0
        e_cpu_work = 0.0
        idle = self.gpu_spec.idle_w
        for kind, count in self.counts.items():
            op = self.ops[kind]
            if op.runs_on_gpu:
                rates = (1.0 / self._t_state[kind])[s]        # (configs, gpus)
                total_rate = rates.sum(axis=1)
                t_gpu += count / total_rate
                e_gpu += (count / total_rate) * (self._p_state[kind] - idle)[s].sum(axis=1)
            else:
                per_core = (
                    op.flops
                    / (self._cpu_core_gflops * _CPU_FACTOR_TABLE[kind] * 1e9)
                    + CPU_OVERHEAD_S
                )
                t_cpu_work += count * per_core / self.n_cpu_workers
                e_cpu_work += count * per_core * self._cpu_dyn_w
        cpath = np.array(
            [self._cpath_by_state[int(s[i].min())] for i in range(n_configs)]
        )
        makespan = np.maximum(np.maximum(t_gpu, t_cpu_work), cpath)
        energy = makespan * self.base_power_w + e_gpu + e_cpu_work
        return {
            c.letters: (float(makespan[i]), float(energy[i]))
            for i, c in enumerate(configs)
        }


# --------------------------------------------------------- plan-and-prune scan


@dataclass(frozen=True)
class PlanReport:
    """What the planner did to a configuration grid (for benches and audits)."""

    objective: str
    n_configs: int
    n_cache_hits: int
    n_simulated: int
    n_pruned: int
    pruned: tuple[str, ...]
    #: ``letters -> (makespan_est_s, energy_est_j)``; empty when pruning was
    #: disabled (no estimates were computed).
    estimates: Mapping[str, tuple[float, float]]


@dataclass(frozen=True)
class PlanResult:
    """Winner of a planned grid scan plus everything evaluated on the way."""

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
    prune: bool = True,
    chunk_size: Optional[int] = None,
) -> PlanResult:
    """Find the grid's best configuration, simulating only possible winners.

    Semantics are those of the exhaustive scan: evaluate every configuration
    with :func:`~repro.core.tradeoff.run_operation` and keep the best score,
    ties breaking toward the earlier grid position.  The planner skips a
    configuration only when its *most optimistic* score bound is strictly
    worse than an exactly-known incumbent, so the returned winner and
    metrics are byte-identical to the exhaustive scan's (a pruned
    configuration can neither win nor tie).  With ``prune=False`` — or when
    the platform is no catalog platform, so no analytic model exists — every
    configuration is simulated.

    Every configuration is looked up exactly once, in one batched
    :meth:`load_many` pass; hits count as exact incumbents immediately.
    Misses are simulated most-promising-first in chunks of ``chunk_size``
    (default: ``jobs``, at least 2) through ``parallel_starmap`` and
    written through under their already-resolved keys.
    """
    from repro.experiments.parallel import parallel_starmap

    obj = get_objective(objective)
    configs = list(configs)
    if not configs:
        raise ValueError("empty configuration grid")
    letters = [c.letters for c in configs]
    if len(set(letters)) != len(letters):
        raise ValueError("duplicate configurations in grid")
    grid_index = {lt: i for i, lt in enumerate(letters)}
    evaluated: dict[str, ConfigMetrics] = {}

    def run_args(c: CapConfig) -> tuple:
        return (platform, spec, c, states, scheduler, seed, cpu_caps)

    # ---- one batched cache resolution (exact incumbents for free)
    keys: dict[str, Optional[str]] = {}
    if cache is not None:
        keys = {c.letters: cache.key_for(run_operation, run_args(c)) for c in configs}
        wanted = [key for key in keys.values() if key is not None]
        loaded = cache.load_many(wanted) if wanted else {}
        for config_letters, key in keys.items():
            if key is not None and loaded[key][0]:
                evaluated[config_letters] = loaded[key][1]
    n_cache_hits = len(evaluated)

    # ---- analytic estimates and optimistic score bounds
    estimates: dict[str, tuple[float, float]] = {}
    optimistic: dict[str, float] = {}
    if prune:
        try:
            model = OperationModel(platform, spec, states, cpu_caps)
        except KeyError:
            prune = False  # ad-hoc platform: no analytic model, no pruning
        else:
            estimates = model.estimate(configs)
            for c_letters, (t_est, e_est) in estimates.items():
                optimistic[c_letters] = obj.optimistic(
                    t_est / MAKESPAN_SLACK, e_est / ENERGY_SLACK, model.total_flops
                )

    def exact_rank(config_letters: str) -> tuple[float, int]:
        return (
            _rank(obj, obj.score(evaluated[config_letters])),
            grid_index[config_letters],
        )

    incumbent: Optional[tuple[float, int]] = None
    for config_letters in evaluated:
        rank = exact_rank(config_letters)
        if incumbent is None or rank < incumbent:
            incumbent = rank

    remaining = [c for c in configs if c.letters not in evaluated]
    if prune:
        remaining.sort(
            key=lambda c: (_rank(obj, optimistic[c.letters]), grid_index[c.letters])
        )
    pruned: list[str] = []
    n_simulated = 0
    chunk = chunk_size if chunk_size else max(2, int(jobs or 1))
    while remaining:
        if prune and incumbent is not None:
            survivors = []
            for c in remaining:
                # Strictly worse than an exact score even in the best case:
                # cannot win, cannot tie — safe to skip.
                if _rank(obj, optimistic[c.letters]) > incumbent[0]:
                    pruned.append(c.letters)
                else:
                    survivors.append(c)
            remaining = survivors
            if not remaining:
                break
        batch, remaining = remaining[:chunk], remaining[chunk:]
        if cache is None:
            results = parallel_starmap(
                run_operation, [run_args(c) for c in batch], jobs=jobs
            )
        else:
            # Each miss is written through under the key resolved above,
            # never looked up again; an unkeyed configuration just runs.
            results = parallel_starmap(
                cache.compute_and_store,
                [(keys[c.letters], run_operation, run_args(c)) for c in batch],
                jobs=jobs,
            )
        for c, metrics in zip(batch, results):
            evaluated[c.letters] = metrics
            n_simulated += 1
            rank = exact_rank(c.letters)
            if incumbent is None or rank < incumbent:
                incumbent = rank

    winner = min(evaluated, key=exact_rank)
    return PlanResult(
        winner=winner,
        metrics=evaluated[winner],
        evaluated=dict(evaluated),
        report=PlanReport(
            objective=obj.name,
            n_configs=len(configs),
            n_cache_hits=n_cache_hits,
            n_simulated=n_simulated,
            n_pruned=len(pruned),
            pruned=tuple(pruned),
            estimates=estimates,
        ),
    )


def audit_plan(
    result: PlanResult,
    platform: str,
    spec: OperationSpec,
    states: CapStates,
    scheduler: str = "dmdas",
    seed: int = 0,
    cpu_caps: Optional[Mapping[int, float]] = None,
    sample: int = 5,
    rng_seed: int = 0,
    cache=None,
) -> dict:
    """Replay a random sample of pruned configurations against the winner.

    Returns an audit document: for every replayed configuration the exact
    simulation must (a) not beat the winner — else pruning was unsound and
    ``beaten_by`` names the offender — and (b) land inside the slack bounds
    around the analytic estimate (``bounds_sound``).
    """
    from repro.experiments.parallel import parallel_starmap

    obj = get_objective(result.report.objective)
    pruned = list(result.report.pruned)
    rng = random.Random(rng_seed)
    sampled = pruned if len(pruned) <= sample else rng.sample(pruned, sample)
    winner_rank = _rank(obj, obj.score(result.metrics))
    bounds_sound = True
    beaten_by: list[str] = []
    checked: list[dict] = []
    replayed = parallel_starmap(
        run_operation,
        [(platform, spec, CapConfig(config_letters), states, scheduler, seed,
          cpu_caps) for config_letters in sampled],
        cache=cache,
    )
    for config_letters, metrics in zip(sampled, replayed):
        t_est, e_est = result.report.estimates[config_letters]
        t_ok = t_est / MAKESPAN_SLACK <= metrics.makespan_s <= t_est * MAKESPAN_SLACK
        e_ok = e_est / ENERGY_SLACK <= metrics.energy_j <= e_est * ENERGY_SLACK
        bounds_sound = bounds_sound and t_ok and e_ok
        if _rank(obj, obj.score(metrics)) < winner_rank:
            beaten_by.append(config_letters)
        checked.append(
            {
                "config": config_letters,
                "makespan_est_s": t_est,
                "makespan_s": metrics.makespan_s,
                "energy_est_j": e_est,
                "energy_j": metrics.energy_j,
                "bounds_ok": bool(t_ok and e_ok),
            }
        )
    return {
        "n_pruned": len(pruned),
        "n_sampled": len(sampled),
        "bounds_sound": bounds_sound,
        "beaten_by": beaten_by,
        "checked": checked,
    }


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
