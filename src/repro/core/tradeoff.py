"""Task-based operations under cap configurations (paper Figs. 3 and 4).

:func:`run_operation` is the experiment workhorse: build one of the paper's
platforms, apply a cap configuration (and optionally CPU caps), execute the
tiled operation through the StarPU-like runtime with the ``dmdas`` scheduler,
and measure application-level energy through the NVML/PAPI facades exactly
as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.capconfig import CapConfig, CapStates
from repro.core.efficiency import ConfigMetrics
from repro.core.runs import RunSpec, build_run
from repro.linalg import assign_priorities, gemm_graph, potrf_graph
from repro.obs import spans as _spans
from repro.sim import Tracer

OPERATIONS = ("gemm", "potrf")


@dataclass(frozen=True)
class OperationSpec:
    """One task-based operation instance (a row of the paper's Table II)."""

    op: str
    n: int
    nb: int
    precision: str

    def __post_init__(self) -> None:
        if self.op not in OPERATIONS:
            raise ValueError(f"unknown operation {self.op!r}; have {OPERATIONS}")
        if self.n % self.nb != 0:
            raise ValueError("N must be a multiple of the tile size Nt")

    @property
    def nt(self) -> int:
        return self.n // self.nb

    def build_graph(self):
        if self.op == "gemm":
            graph, *_ = gemm_graph(self.n, self.nb, self.precision)
        else:
            graph, _ = potrf_graph(self.n, self.nb, self.precision)
        assign_priorities(graph)
        return graph

    def __str__(self) -> str:  # pragma: no cover
        return f"{self.op}-{self.precision} N={self.n} Nt={self.nb}"


def run_operation(
    platform: str,
    spec: OperationSpec,
    config: CapConfig,
    states: CapStates,
    scheduler: str = "dmdas",
    seed: int = 0,
    cpu_caps: Optional[Mapping[int, float]] = None,
    tracer: Optional[Tracer] = None,
    cache: Optional["ExperimentCache"] = None,
) -> ConfigMetrics:
    """Execute one operation under one cap configuration; return metrics.

    The run is a pure function of its arguments (own Simulator, own seeded
    RNG pool), so with ``cache`` set the result is memoised under the full
    run identity; traced runs (``tracer`` not ``None``) are never cached
    because their side-channel artefacts cannot be replayed from a value.
    """
    if cache is not None:
        key = cache.key_for(
            "run_operation",
            (platform, spec, config, states, scheduler, seed, cpu_caps, tracer),
        )
        if key is not None:
            hit, value = cache.load(key)
            if hit:
                return value
            value = run_operation(
                platform, spec, config, states, scheduler, seed, cpu_caps, tracer
            )
            cache.save(key, value, label=f"{platform}/{spec.op}/{config.letters}")
            return value
    with _spans.span(
        "run_operation",
        platform=platform,
        op=spec.op,
        n=spec.n,
        config=config.letters,
        scheduler=scheduler,
        seed=seed,
    ):
        run = build_run(
            RunSpec(platform, spec, config, states, scheduler=scheduler,
                    seed=seed, cpu_caps=cpu_caps),
            tracer=tracer,
        )
        (result,) = run.execute([spec])
        measurement = run.measurement
        return ConfigMetrics(
            config=config.letters,
            makespan_s=measurement.duration_s,
            total_flops=result.total_flops,
            energy_j=measurement.total_j,
            device_energy_j={**measurement.cpu_j, **measurement.gpu_j},
            gpu_task_fraction=result.gpu_task_fraction(),
        )


def run_config_set(
    platform: str,
    spec: OperationSpec,
    configs: Sequence[CapConfig],
    states: CapStates,
    scheduler: str = "dmdas",
    seed: int = 0,
    cpu_caps: Optional[Mapping[int, float]] = None,
    jobs: int = 1,
    cache: Optional["ExperimentCache"] = None,
) -> dict[str, ConfigMetrics]:
    """Run a set of configurations; keys are the config letter strings.

    Each configuration is an independent simulation, so ``jobs > 1`` fans
    them out over a process pool with bit-identical results (lazy import to
    avoid the ``core -> experiments`` cycle); ``cache`` resolves hits
    before any pool work is submitted.
    """
    from repro.experiments.parallel import parallel_starmap

    metrics = parallel_starmap(
        run_operation,
        [(platform, spec, config, states, scheduler, seed, cpu_caps) for config in configs],
        jobs=jobs,
        cache=cache,
    )
    return {config.letters: m for config, m in zip(configs, metrics)}


def best_config(
    platform: str,
    spec: OperationSpec,
    configs: Sequence[CapConfig],
    states: CapStates,
    objective: str = "efficiency",
    scheduler: str = "dmdas",
    seed: int = 0,
    cpu_caps: Optional[Mapping[int, float]] = None,
    jobs: int = 1,
    cache: Optional["ExperimentCache"] = None,
    prune: bool = True,
) -> "PlanResult":
    """Arg-best over a configuration grid without simulating the whole grid.

    Thin entry point to the bound-and-prune planner
    (:func:`repro.core.planner.plan_configs`, lazy import — the planner
    imports this module): identical winner and metrics to running
    :func:`run_config_set` over the full grid and taking the best
    ``objective`` score, but only configurations that could still win are
    simulated.
    """
    from repro.core.planner import plan_configs

    return plan_configs(
        platform, spec, configs, states,
        objective=objective, scheduler=scheduler, seed=seed,
        cpu_caps=cpu_caps, jobs=jobs, cache=cache, prune=prune,
    )


@dataclass(frozen=True)
class RepeatedMetrics:
    """Mean and spread over several seeded repetitions of one configuration.

    The paper averages repeated runs per configuration; this is the same
    methodology (each repetition re-seeds execution and calibration noise).
    """

    config: str
    runs: tuple[ConfigMetrics, ...]

    @property
    def mean_gflops(self) -> float:
        return sum(r.gflops for r in self.runs) / len(self.runs)

    @property
    def mean_energy_j(self) -> float:
        return sum(r.energy_j for r in self.runs) / len(self.runs)

    @property
    def mean_efficiency(self) -> float:
        return sum(r.efficiency for r in self.runs) / len(self.runs)

    @property
    def efficiency_spread(self) -> float:
        """(max - min) / mean of efficiency across repetitions."""
        effs = [r.efficiency for r in self.runs]
        return (max(effs) - min(effs)) / self.mean_efficiency


def run_repeated(
    platform: str,
    spec: OperationSpec,
    config: CapConfig,
    states: CapStates,
    repeats: int = 3,
    scheduler: str = "dmdas",
    base_seed: int = 0,
    cpu_caps: Optional[Mapping[int, float]] = None,
    jobs: int = 1,
    cache: Optional["ExperimentCache"] = None,
) -> RepeatedMetrics:
    """Run one configuration ``repeats`` times with distinct seeds.

    Repetitions differ only by seed and are independent simulations, so
    ``jobs > 1`` runs them across a process pool, bit-identically; each
    seeded repetition is a distinct ``cache`` entry.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    from repro.experiments.parallel import parallel_starmap

    runs = tuple(
        parallel_starmap(
            run_operation,
            [
                (platform, spec, config, states, scheduler, base_seed + i, cpu_caps)
                for i in range(repeats)
            ],
            jobs=jobs,
            cache=cache,
        )
    )
    return RepeatedMetrics(config=config.letters, runs=runs)
