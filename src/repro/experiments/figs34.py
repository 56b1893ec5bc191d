"""Shared driver for Figs. 3 (double) and 4 (single).

For every platform and both operations, run the configuration ladder and
report the paper's three quantities per configuration: performance change,
energy change (positive = saving) and energy efficiency — all relative to
the all-H default.  On the Intel platform the paper's CPU cap is applied
(see the Fig. 6 caption).

Every (platform, operation, configuration) run is an independent
simulation, so the driver flattens the whole grid into one list of calls
and maps it through :func:`~repro.experiments.parallel.parallel_starmap`
— ``jobs > 1`` parallelises across the full grid, not just within one
configuration ladder, and the emitted rows are bit-identical to a serial
run.
"""

from __future__ import annotations

from repro.core.capconfig import CapConfig
from repro.core.efficiency import ConfigMetrics
from repro.core.tradeoff import run_operation
from repro.experiments.parallel import parallel_starmap
from repro.experiments.platforms import (
    PAPER_CPU_CAPS,
    cap_states,
    config_list,
    operation_spec,
)
from repro.experiments.runner import ExperimentResult, check_scale
from repro.hardware.catalog import platform_names


def _baseline(
    metrics: dict[str, ConfigMetrics], configs: list[CapConfig], context: str
) -> ConfigMetrics:
    """The all-H default every delta is computed against.

    Resolved explicitly from the configuration list rather than by
    reconstructing the letter string from whatever happens to be first —
    and a missing baseline is a loud, named error instead of a bare
    ``KeyError``.
    """
    key = "H" * configs[0].n_gpus
    try:
        return metrics[key]
    except KeyError:
        raise ValueError(
            f"baseline config {key!r} missing from results for {context}; "
            f"have {sorted(metrics)}"
        ) from None


def run_precision(
    precision: str,
    name: str,
    scale: str = "small",
    seed: int = 0,
    platforms: list[str] | None = None,
    ops: tuple[str, ...] = ("gemm", "potrf"),
    jobs: int = 1,
    cache=None,
) -> ExperimentResult:
    check_scale(scale)
    result = ExperimentResult(
        name=name,
        title=f"Performance and energy analysis, {precision} precision "
        "(deltas vs the all-H default)",
        headers=[
            "platform", "operation", "config",
            "perf_delta_pct", "energy_saving_pct", "eff_gflops_per_W",
            "gpu_task_frac",
        ],
    )
    cases = []
    calls = []
    for platform in platforms or platform_names():
        for op in ops:
            spec = operation_spec(platform, op, precision, scale)
            states = cap_states(platform, op, precision, scale, cache=cache)
            configs = config_list(platform)
            cases.append((platform, op, configs))
            calls.extend(
                (platform, spec, config, states, "dmdas", seed, PAPER_CPU_CAPS[platform])
                for config in configs
            )
    outcomes = iter(parallel_starmap(run_operation, calls, jobs=jobs, cache=cache))
    for platform, op, configs in cases:
        metrics = {config.letters: next(outcomes) for config in configs}
        base = _baseline(metrics, configs, f"{platform}/{op}/{precision}")
        for config in configs:
            m = metrics[config.letters]
            result.rows.append(
                (
                    platform,
                    op,
                    config.letters,
                    round(m.perf_delta_pct(base), 2),
                    round(m.energy_saving_pct(base), 2),
                    round(m.efficiency, 2),
                    round(m.gpu_task_fraction, 3),
                )
            )
    return result
