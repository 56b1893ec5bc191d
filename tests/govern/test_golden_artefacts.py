"""Byte-identity gate for governed artefacts, and the lean static baseline.

- ``tests/data/golden_govern_small_shift_kill_throttle.json`` pins the
  sha256 of ``govern.json``, ``trace.json`` and ``decisions.jsonl`` for one
  streamed small-scale kill-throttle run under the shifting mix.  Export
  optimisations (streamed trace writing, leaner baseline runs) must leave
  every byte in place.
- The static-best run carries no tracer, metrics or decision log; it must
  report exactly what a fully instrumented run of the same scenario does.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.energy.meters import EnergyMeter
from repro.faults.nvml_guard import apply_caps_verified
from repro.faults.plan import preset_plan
from repro.govern import run_govern
from repro.govern.run import (
    _run_phases,
    default_budget_w,
    scenario_phases,
    static_best_config,
)
from repro.hardware.catalog import build_platform
from repro.obs.decisions import DecisionLog
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RuntimeSystem
from repro.sim import Simulator, Tracer
from repro.tools.powertrace import PowerSampler

GOLDEN = (Path(__file__).resolve().parents[1] / "data"
          / "golden_govern_small_shift_kill_throttle.json")
PLATFORM = "24-Intel-2-V100"
POWER_PERIOD_S = 0.005


def test_governed_artefacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    sc = golden["scenario"]
    gov = run_govern(
        sc["platform"], sc["op"], sc["precision"],
        preset_plan(sc["preset"], seed=sc["plan_seed"]),
        mix=sc["mix"], outdir=str(tmp_path), seed=sc["seed"],
        scale=sc["scale"], stream=sc["stream"],
    )
    assert gov.passed is True
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in golden["sha256"]
    }
    assert digests == golden["sha256"]


def _instrumented_phases(platform, phases, caps_w, scheduler, seed):
    """The static-best run with tracer, metrics and decision log attached."""
    sim = Simulator()
    tracer = Tracer()
    node = build_platform(platform, sim, tracer)
    log = DecisionLog()
    runtime = RuntimeSystem(
        node, scheduler=scheduler, seed=seed, tracer=tracer,
        metrics=MetricsRegistry(clock=sim), decision_log=log,
        ewma_alpha=0.3,
    )
    apply_caps_verified(node, caps_w, strict=False)
    sampler = PowerSampler(node, runtime, period_s=POWER_PERIOD_S)
    meter = EnergyMeter(node)
    meter.start()
    results = []
    for phase in phases:
        sampler.start()
        results.append(runtime.run(phase.spec.build_graph(),
                                   reset_energy=False))
    assert tracer.intervals and len(log) > 0  # the telemetry was live
    return results, meter.stop()


def _totals(results, measure):
    return {
        "makespan_s": sum(r.makespan_s for r in results),
        "total_flops": sum(r.total_flops for r in results),
        "phase_makespans_s": [r.makespan_s for r in results],
        "total_j": measure.total_j,
    }


@pytest.mark.parametrize("mix", ["steady", "shift"])
@pytest.mark.parametrize("seed", [0, 7])
def test_lean_static_run_matches_instrumented(mix, seed):
    phases = scenario_phases(PLATFORM, "gemm", "double", "tiny", mix)
    _, caps = static_best_config(PLATFORM, phases[0],
                                 default_budget_w(PLATFORM))
    lean = _run_phases(PLATFORM, phases, caps, "dmdas", seed, POWER_PERIOD_S)
    full = _instrumented_phases(PLATFORM, phases, caps, "dmdas", seed)
    assert len(lean[0]) == len(phases)
    assert _totals(*lean) == _totals(*full)
