"""Fig. 5: per-device energy breakdown on 24-Intel-2-V100, double precision.

Shows how the CPUs' (busy-waiting) energy share grows when the GPUs are
capped — the effect that motivates the paper's CPU-capping study.  No CPU
cap is applied here (this figure motivates it).
"""

from __future__ import annotations

from repro.core.tradeoff import run_config_set
from repro.experiments.platforms import cap_states, config_list, operation_spec
from repro.experiments.runner import ExperimentResult, check_scale

PLATFORM = "24-Intel-2-V100"


def run(scale: str = "small", seed: int = 0, jobs: int = 1, cache=None) -> ExperimentResult:
    check_scale(scale)
    result = ExperimentResult(
        name="fig5",
        title=f"Per-device energy on {PLATFORM}, double precision",
        headers=["operation", "config", "device", "energy_J", "share_pct"],
        notes=[
            "paper: CPU share grows under GPU caps; at LL the CPU increase "
            "offsets part of the GPU saving",
        ],
    )
    for op in ("gemm", "potrf"):
        spec = operation_spec(PLATFORM, op, "double", scale)
        states = cap_states(PLATFORM, op, "double", scale, cache=cache)
        metrics = run_config_set(
            PLATFORM, spec, config_list(PLATFORM), states, seed=seed, jobs=jobs,
            cache=cache,
        )
        for config, m in metrics.items():
            total = m.energy_j
            for device in sorted(m.device_energy_j):
                joules = m.device_energy_j[device]
                result.rows.append(
                    (op, config, device, round(joules, 1), round(100 * joules / total, 1))
                )
    return result
