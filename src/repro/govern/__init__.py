"""Fault-resilient online power-budget governance.

The closed-loop counterpart to the paper's static L/B/H study: a sim-clock
feedback controller (:mod:`repro.govern.controller`) that re-solves a global
watt budget across the node's GPUs from live telemetry, survives the
failure modes :mod:`repro.faults` models via a hold → quarantine →
safe-mode degradation ladder, and a comparison driver
(:mod:`repro.govern.run`) measuring it against the best static
configuration — ``repro run --allocator``.
"""

from repro.govern.controller import (
    ACTIVE,
    HELD,
    QUARANTINED,
    PowerBudgetGovernor,
)
from repro.govern.run import (
    MIXES,
    GovernRun,
    Phase,
    default_budget_w,
    render_govern_summary,
    run_govern,
    scenario_phases,
    static_best_config,
)

__all__ = [
    "ACTIVE",
    "HELD",
    "QUARANTINED",
    "PowerBudgetGovernor",
    "MIXES",
    "GovernRun",
    "Phase",
    "default_budget_w",
    "render_govern_summary",
    "run_govern",
    "scenario_phases",
    "static_best_config",
]
