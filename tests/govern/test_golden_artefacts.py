"""Byte-identity gates for governed and chaos summaries, and the lean baselines.

- ``tests/data/golden_govern_small_shift_kill_throttle.json`` pins the
  sha256 of ``govern.json``, ``trace.json`` and ``decisions.jsonl`` for one
  streamed small-scale kill-throttle run under the shifting mix.  Export
  optimisations (streamed trace writing, leaner baseline runs) must leave
  every byte in place.
- The static-best run and the chaos baseline carry no tracer, metrics or
  decision log; each must report exactly what a fully instrumented run of
  the same spec does.
- ``chaos.json`` and ``govern.json`` are byte-identical whether the
  baseline ran or came from the experiment cache.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cache import ExperimentCache
from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec, build_run
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.govern import run_govern
from repro.govern.run import (
    default_budget_w,
    scenario_phases,
    static_best_config,
    static_spec,
)

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


def _execute(spec, operations):
    """Build and execute ``spec``; the totals and the run."""
    run = build_run(spec)
    results = run.execute(operations)
    totals = {
        "makespan_s": sum(r.makespan_s for r in results),
        "total_flops": sum(r.total_flops for r in results),
        "phase_makespans_s": [r.makespan_s for r in results],
        "total_j": run.measurement.total_j,
    }
    return totals, run


@pytest.mark.parametrize("mix", ["steady", "shift"])
@pytest.mark.parametrize("seed", [0, 7])
def test_lean_static_run_matches_instrumented(mix, seed):
    phases = scenario_phases(PLATFORM, "gemm", "double", "tiny", mix)
    config, _ = static_best_config(PLATFORM, phases[0],
                                   default_budget_w(PLATFORM))
    spec = static_spec(PLATFORM, phases, config, "dmdas", seed, POWER_PERIOD_S)
    operations = [p.spec for p in phases]
    lean, lean_run = _execute(spec, operations)
    full, full_run = _execute(replace(spec, observe=True), operations)
    assert lean_run.tracer is None and lean_run.decisions is None
    assert full_run.tracer.intervals and len(full_run.decisions) > 0
    assert len(lean["phase_makespans_s"]) == len(phases)
    assert lean == full


@pytest.mark.parametrize("op, config", [("potrf", "HH"), ("gemm", "BL")])
@pytest.mark.parametrize("seed", [0, 7])
def test_lean_chaos_baseline_matches_instrumented(op, config, seed):
    """``run_chaos`` runs its fault-free baseline without observers."""
    spec = operation_spec(PLATFORM, op, "double", "tiny")
    states = cap_states(PLATFORM, op, "double", "tiny")
    baseline = RunSpec(PLATFORM, spec, CapConfig(config), states, seed=seed,
                       power_period_s=POWER_PERIOD_S)
    lean, _ = _execute(baseline, [spec])
    full, full_run = _execute(replace(baseline, observe=True), [spec])
    assert full_run.tracer.intervals and len(full_run.decisions) > 0
    assert lean == full


def _chaos_run(outdir, cache):
    spec = operation_spec(PLATFORM, "potrf", "double", "tiny")
    states = cap_states(PLATFORM, "potrf", "double", "tiny")
    return run_chaos(PLATFORM, spec, CapConfig("HB"), states,
                     preset_plan("brownout", seed=1), outdir=outdir,
                     seed=1, scale="tiny", cache=cache)


def _govern_run(outdir, cache):
    return run_govern(PLATFORM, "gemm", "double", preset_plan("hang", seed=2),
                      mix="shift", outdir=outdir, seed=2, cache=cache)


@pytest.mark.parametrize("run, summary_file", [
    (_chaos_run, "chaos.json"), (_govern_run, "govern.json"),
])
def test_summary_byte_identical_warm_vs_cold(run, summary_file, tmp_path):
    """A baseline served from the cache changes no byte of the summary."""
    cache = ExperimentCache(tmp_path / "cache")
    run(str(tmp_path / "cold"), cache)
    misses = cache.misses
    warm = run(str(tmp_path / "warm"), cache)
    assert cache.misses == misses and cache.hits > 0
    assert warm.passed is True
    cold_bytes = (tmp_path / "cold" / summary_file).read_bytes()
    assert (tmp_path / "warm" / summary_file).read_bytes() == cold_bytes
