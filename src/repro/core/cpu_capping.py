"""CPU power capping study (paper Sec. V-C, Fig. 6).

The paper caps the *second* CPU package of 24-Intel-2-V100 at 48 % of its
TDP (60 W of 125 W) — below that the node became unstable — and finds that
energy efficiency improves across every configuration with no performance
loss, because the scheduler rarely puts critical tasks on the CPUs while the
busy-waiting worker cores keep drawing power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.capconfig import CapConfig, CapStates
from repro.core.efficiency import ConfigMetrics
from repro.core.tradeoff import OperationSpec, run_config_set

#: The paper's CPU cap: package 1 at 48 % of the Xeon's 125 W TDP.
PAPER_CPU_CAP = {1: 60.0}


@dataclass(frozen=True)
class CPUCapComparison:
    """One configuration measured with and without the CPU cap."""

    config: str
    without_cap: ConfigMetrics
    with_cap: ConfigMetrics

    @property
    def efficiency_improvement_pct(self) -> float:
        return (self.with_cap.efficiency / self.without_cap.efficiency - 1.0) * 100.0

    @property
    def perf_impact_pct(self) -> float:
        return (self.with_cap.gflops / self.without_cap.gflops - 1.0) * 100.0


def compare_cpu_capping(
    platform: str,
    spec: OperationSpec,
    configs: Sequence[CapConfig],
    states: CapStates,
    cpu_caps: Optional[dict[int, float]] = None,
    scheduler: str = "dmdas",
    seed: int = 0,
    jobs: int = 1,
    cache: Optional["ExperimentCache"] = None,
) -> list[CPUCapComparison]:
    """Fig. 6: for each GPU cap config, run with and without the CPU cap."""
    caps = dict(PAPER_CPU_CAP if cpu_caps is None else cpu_caps)
    base = run_config_set(platform, spec, configs, states, scheduler=scheduler,
                          seed=seed, jobs=jobs, cache=cache)
    capped = run_config_set(platform, spec, configs, states, scheduler=scheduler,
                            seed=seed, cpu_caps=caps, jobs=jobs, cache=cache)
    return [
        CPUCapComparison(c.letters, base[c.letters], capped[c.letters])
        for c in configs
    ]
