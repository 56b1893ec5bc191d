"""Fig. 6: efficiency improvement from capping one CPU at 48 % TDP.

24-Intel-2-V100, both operations, both precisions, every GPU configuration:
run with and without the CPU cap and report the efficiency improvement and
the (absence of) performance impact.
"""

from __future__ import annotations

from repro.core.cpu_capping import compare_cpu_capping
from repro.experiments.platforms import cap_states, config_list, operation_spec
from repro.experiments.runner import ExperimentResult, check_scale

PLATFORM = "24-Intel-2-V100"


def run(scale: str = "small", seed: int = 0, jobs: int = 1, cache=None) -> ExperimentResult:
    check_scale(scale)
    result = ExperimentResult(
        name="fig6",
        title=f"Energy-efficiency gain from capping CPU1 at 60 W on {PLATFORM}",
        headers=[
            "operation", "precision", "config",
            "eff_improvement_pct", "perf_impact_pct",
        ],
        notes=[
            "paper: >10 % improvement (up to 14 % for GEMM), no performance loss",
        ],
    )
    for op in ("gemm", "potrf"):
        for precision in ("double", "single"):
            spec = operation_spec(PLATFORM, op, precision, scale)
            states = cap_states(PLATFORM, op, precision, scale, cache=cache)
            comparisons = compare_cpu_capping(
                PLATFORM, spec, config_list(PLATFORM), states, seed=seed, jobs=jobs,
                cache=cache,
            )
            for c in comparisons:
                result.rows.append(
                    (
                        op,
                        precision,
                        c.config,
                        round(c.efficiency_improvement_pct, 2),
                        round(c.perf_impact_pct, 2),
                    )
                )
    return result
