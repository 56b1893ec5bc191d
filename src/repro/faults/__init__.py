"""Deterministic fault injection and runtime recovery.

The paper's protocol assumes a cooperative machine: caps apply on request,
GPUs run at their capped speed, workers never die.  Real power-managed
clusters violate all three — NVML calls fail transiently, hot devices
throttle below their configured cap without reporting it, and nodes lose
workers mid-run.  This package stresses the scheduler/cap machinery under
exactly those conditions, deterministically:

- :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded, serialisable
  schedule of :class:`FaultSpec` entries (what breaks, when, how badly);
- :mod:`repro.faults.injector` — :class:`FaultInjector`, arms a plan on the
  simulation clock against the devices/links/workers of one runtime;
- :mod:`repro.faults.recovery` — :class:`RecoveryManager`, the runtime-side
  countermeasures: retry with capped backoff, re-submission of in-flight
  work from dead workers, quarantine with probe-based re-admission, and
  perf-model recalibration when observed durations drift (throttle
  detection);
- :mod:`repro.faults.nvml_guard` — retry/verify-after-set wrappers over the
  NVML facade, hardening the cap-application path;
- :mod:`repro.faults.chaos` — :func:`run_chaos`, ``repro run`` with a
  fault plan: one cap config under the plan, reported against its
  fault-free twin.

Everything is driven by the simulation clock and named RNG streams, so a
chaos run is bit-reproducible from ``(seed, plan)``.
"""

from repro.faults.chaos import ChaosRun, run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.nvml_guard import (
    CapReport,
    CapVerifyError,
    apply_caps_verified,
    set_power_limit_verified,
)
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    preset_plan,
    random_plan,
)
from repro.faults.recovery import RecoveryManager

__all__ = [
    "FAULT_KINDS",
    "CapReport",
    "CapVerifyError",
    "ChaosRun",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "RecoveryManager",
    "apply_caps_verified",
    "preset_plan",
    "random_plan",
    "run_chaos",
    "set_power_limit_verified",
]
