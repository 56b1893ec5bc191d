"""End-to-end chaos acceptance tests (the ISSUE's headline criteria).

- killing one GPU worker and throttling another mid-POTRF still completes
  every task exactly once, with a clean decision-replay audit;
- the same ``(seed, plan)`` reproduces the run byte-for-byte;
- an empty fault plan leaves the instrumented-run numbers untouched.
"""

import json

import pytest

from repro.cli import main
from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.obs.capture import run_traced

PLATFORM = "24-Intel-2-V100"


def _chaos(preset, tmpdir=None, **kw):
    spec = operation_spec(PLATFORM, "potrf", "double", "tiny")
    states = cap_states(PLATFORM, "potrf", "double", "tiny")
    return run_chaos(
        RunSpec(PLATFORM, spec, CapConfig("HH"), states, scheduler="dmdas",
                seed=0, scale="tiny", plan=preset_plan(preset)),
        outdir=tmpdir, **kw,
    )


@pytest.fixture(scope="module")
def kill_throttle(tmp_path_factory):
    out = tmp_path_factory.mktemp("chaos") / "kill-throttle"
    return _chaos("kill-throttle", str(out))


@pytest.fixture(scope="module")
def empty_plan():
    return _chaos("none")


def test_kill_and_throttle_completes_every_task_exactly_once(kill_throttle):
    chaos = kill_throttle
    assert chaos.summary["audit"]["all_tasks_done"] is True
    executed = sum(chaos.faulted.worker_tasks.values())
    assert executed == chaos.faulted.n_tasks
    assert chaos.passed is True


def test_kill_and_throttle_decision_replay_is_clean(kill_throttle):
    assert kill_throttle.decisions.verify_replay() == []
    audit = kill_throttle.summary["audit"]
    assert audit["decision_replay_mismatches"] == 0
    assert audit["decisions_cover_all_tasks"] is True


def test_kill_and_throttle_actually_recovered(kill_throttle):
    """The faults must have bitten: a quarantine and a recalibration."""
    stats = kill_throttle.summary["recovery"]
    assert stats["quarantined"] >= 1
    assert stats["recalibrations"] >= 1
    kinds = {e["kind"] for e in kill_throttle.injector.events}
    assert {"worker-kill", "gpu-throttle"} <= kinds
    # The dead worker ran fewer tasks than the survivor.
    tasks = kill_throttle.faulted.worker_tasks
    assert tasks["gpu-w0"] < tasks["gpu-w1"]


def test_fault_artifacts_written(kill_throttle):
    out = kill_throttle.outdir
    names = {p.name for p in out.iterdir()}
    assert {"chaos.json", "faults.jsonl", "events.jsonl",
            "decisions.jsonl", "manifest.json", "metrics.prom"} <= names
    faults = [json.loads(line) for line in
              (out / "faults.jsonl").read_text().splitlines()]
    times = [f["t"] for f in faults]
    assert times == sorted(times)
    # The merged event stream carries the fault events inline.
    events = (out / "events.jsonl").read_text()
    assert '"type": "fault"' in events
    # Metrics counted the injections by kind.
    prom = (out / "metrics.prom").read_text()
    assert 'repro_faults_injected_total{kind="worker-kill"}' in prom


def test_same_seed_and_plan_reproduce_byte_identical_artifacts(
    kill_throttle, tmp_path
):
    again = _chaos("kill-throttle", str(tmp_path / "again"))
    for name in ("chaos.json", "faults.jsonl", "events.jsonl",
                 "decisions.jsonl", "result.json", "metrics.prom"):
        a = (kill_throttle.outdir / name).read_bytes()
        b = (again.outdir / name).read_bytes()
        assert a == b, f"{name} differs between identical (seed, plan) runs"


def test_empty_plan_matches_run_traced_numbers(empty_plan, tmp_path):
    """Acceptance: with an empty fault plan the trace numbers are unchanged
    — the fault machinery costs nothing when no faults are armed."""
    spec = operation_spec(PLATFORM, "potrf", "double", "tiny")
    states = cap_states(PLATFORM, "potrf", "double", "tiny")
    traced = run_traced(
        RunSpec(PLATFORM, spec, CapConfig("HH"), states, scheduler="dmdas",
                seed=0, scale="tiny"),
        str(tmp_path / "trace"),
    )
    (result,) = traced.results
    chaos = empty_plan
    assert chaos.faulted.makespan_s == result.makespan_s
    assert chaos.faulted.gflops == result.gflops
    assert chaos.faulted.total_energy_j == result.total_energy_j
    assert chaos.faulted.worker_tasks == result.worker_tasks
    assert len(chaos.decisions) == len(traced.decisions)


def test_empty_plan_has_zero_degradation(empty_plan):
    deg = empty_plan.summary["degradation"]
    assert deg["makespan_pct"] == 0.0
    assert deg["energy_pct"] == 0.0
    assert empty_plan.summary["faults_injected"] == 0
    assert empty_plan.passed is True


def test_hang_preset_detects_and_retries():
    chaos = _chaos("hang")
    assert chaos.passed is True
    stats = chaos.summary["recovery"]
    assert stats["hangs_detected"] >= 1
    assert stats["retries"] >= 1
    assert stats["readmitted"] >= 1


def test_brownout_preset_revives_the_worker():
    chaos = _chaos("brownout")
    assert chaos.passed is True
    stats = chaos.summary["recovery"]
    assert stats["quarantined"] >= 1
    assert stats["readmitted"] >= 1
    # The transiently dead worker rejoined and ran tasks after revival.
    assert chaos.faulted.worker_tasks["gpu-w1"] > 0


def test_flaky_driver_reports_cap_retries_and_clamp():
    chaos = _chaos("flaky-driver")
    assert chaos.passed is True
    reports = {r["device"]: r for r in chaos.summary["cap_reports"]}
    assert reports["gpu0"]["attempts"] > 1  # retried past injected failures
    assert reports["gpu0"]["verified"] is True
    assert reports["gpu1"]["verified"] is False  # silent clamp detected
    assert reports["gpu1"]["applied_w"] < reports["gpu1"]["requested_w"]


def test_blackout_preset_drops_power_samples():
    chaos = _chaos("blackout")
    assert chaos.passed is True
    assert chaos.summary["power_samples_dropped"] > 0
    assert chaos.sampler.n_dropped == chaos.summary["power_samples_dropped"]
    # Sampling resumed after the blackout window.
    t_last_window = max(t1 for _, t1 in chaos.sampler.blackouts)
    assert any(s.time_s >= t_last_window for s in chaos.sampler.samples)


def test_cli_chaos_exit_code_and_summary(tmp_path, capsys):
    rundir = tmp_path / "cli-run"
    code = main([
        "chaos", "--platform", PLATFORM, "--preset", "kill-throttle",
        "--scale", "tiny", "--outdir", str(rundir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "audit: PASS" in out
    assert (rundir / "chaos.json").exists()
    # The report renderer picks up the fault section for chaos run dirs.
    assert main(["report", str(rundir)]) == 0
    report = capsys.readouterr().out
    assert "[faults] injected:" in report
    assert "resilience audit: PASS" in report
