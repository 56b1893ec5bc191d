"""Task-based operations under cap configurations (paper Figs. 3 and 4).

:func:`run_operation` is the experiment workhorse: build one of the paper's
platforms, apply a cap configuration (and optionally CPU caps), execute the
tiled operation through the StarPU-like runtime with the ``dmdas`` scheduler,
and measure application-level energy through the NVML/PAPI facades exactly
as the paper does.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from repro.core.capconfig import CapConfig, CapStates
from repro.core.efficiency import ConfigMetrics
from repro.core.runs import RunSpec, build_run
from repro.linalg import assign_priorities, gemm_graph, potrf_graph
from repro.obs import spans as _spans

OPERATIONS = ("gemm", "potrf")


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; restore the caller's state.

    Building a paper-scale graph leaves ~119 k container objects alive
    (about three per task), which would trigger repeated collections that
    find nothing: task graphs hold no reference cycles (edges point
    forward only, see :mod:`repro.runtime.graph`), so refcounting alone
    frees them.  Pausing
    only defers collection; whatever the caller had enabled is re-enabled
    on exit, exception or not.  A graph re-run after
    :meth:`~repro.runtime.graph.TaskGraph.reset` is not built again, so it
    pays neither the build nor the pause.  The GC switch is process-wide, so a
    concurrent build in another thread may re-enable it early; that costs
    speed, never correctness.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
        for name in ("n", "nb"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.n % self.nb != 0:
            raise ValueError("N must be a multiple of the tile size Nt")

    @property
    def nt(self) -> int:
        return self.n // self.nb

    def build_graph(self):
        """A freshly built task graph with priorities assigned.

        Always a new graph; :meth:`repro.core.runs.Run.execute` calls this
        only when its thread holds no finished graph of this operation to
        reset and re-run.
        """
        with gc_paused():
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
) -> ConfigMetrics:
    """Execute one operation under one cap configuration; return metrics.

    The run is a pure function of its arguments (own Simulator, own seeded
    RNG pool), so :func:`run_config_set` and ``parallel_starmap`` memoise
    it under the full run identity.
    """
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

