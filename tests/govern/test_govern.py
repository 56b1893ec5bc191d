"""End-to-end governor acceptance tests (the ISSUE's headline criteria).

- under every fault preset the governor keeps the node at or below the
  budget, quarantines failing devices instead of crashing, and the
  scenario completes every task exactly once;
- fault-free it never trips safe mode and does at least as well as the
  best static configuration;
- the same ``(seed, plan)`` reproduces ``govern.json`` and the
  budget-move ledger byte-for-byte.
"""

import json

import pytest

from repro.cli import main
from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec, build_run
from repro.faults.plan import PRESET_NAMES, FaultPlan, FaultSpec, preset_plan
from repro.govern import run_govern, scenario_phases
from repro.govern.controller import MAX_FAILURES, QUARANTINED
from repro.obs.stream import BUDGET_TOLERANCE_W

PLATFORM = "24-Intel-2-V100"
SEED = 3
#: The gated scenarios' budget, pinned so that a change of
#: ``default_budget_w`` (400 W on this platform today) cannot move them.
BUDGET_W = 400.0


def _govern(preset, mix="steady", outdir=None, **kw):
    plan = (FaultPlan(name="none") if preset == "none"
            else preset_plan(preset, seed=SEED))
    return run_govern(
        PLATFORM, "gemm", "double", plan, mix=mix, outdir=outdir,
        seed=SEED, **kw,
    )


@pytest.fixture(scope="module")
def fault_free():
    return _govern("none", budget_w=BUDGET_W)


@pytest.fixture(scope="module")
def fault_free_shift():
    return _govern("none", mix="shift", budget_w=BUDGET_W)


# ------------------------------------------------------------ fault matrix


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_preset_respects_budget_and_exactly_once(preset):
    gov = _govern(preset)
    audit = gov.summary["audit"]
    assert audit["budget_respected"] is True
    assert audit["all_tasks_done"] is True
    assert audit["executed_exactly_once"] is True
    assert audit["decision_replay_mismatches"] == 0
    assert gov.governor.max_total_cap_w <= (
        gov.summary["budget_w"] + BUDGET_TOLERANCE_W
    )
    assert gov.passed is True


def test_kill_throttle_under_shifting_mix_completes():
    """The worst case: a permanent worker death followed by a second
    workload phase whose fresh scheduler must re-exclude the corpse."""
    gov = _govern("kill-throttle", mix="shift", budget_w=BUDGET_W)
    assert gov.summary["audit"]["budget_respected"] is True
    assert gov.passed is True
    assert gov.summary["recovery"]["quarantined"] >= 1
    kinds = {e["kind"] for e in gov.recovery.events}
    assert "re-exclude" in kinds  # phase 2 saw the standing death
    # The governor reclaimed the dead device's watts.
    assert gov.summary["governor"]["moves_by_kind"].get("reclaim", 0) >= 1


def test_blackout_holds_then_resumes(fault_free):
    gov = _govern("blackout")
    moves = gov.summary["governor"]["moves_by_kind"]
    assert moves.get("hold", 0) >= 1
    assert moves.get("resume", 0) >= 1
    assert gov.summary["governor"]["safe_mode"] is False
    assert gov.passed is True


def test_flaky_driver_applies_clamp_ceiling():
    gov = _govern("flaky-driver")
    moves = gov.summary["governor"]["moves_by_kind"]
    assert moves.get("clamp-limit", 0) >= 1
    assert gov.passed is True


# ----------------------------------------------------------- ladder rungs


def test_persistent_cap_failures_quarantine_the_device():
    plan = FaultPlan(
        faults=[FaultSpec(kind="cap-set-error", time=0.0, target="gpu1",
                          magnitude=1000.0)],
        name="cap-wedge", seed=SEED, relative=False,
    )
    gov = run_govern(PLATFORM, "gemm", "double", plan, seed=SEED)
    states = {d.name: d.state for d in gov.governor.devices}
    assert states["gpu1"] == QUARANTINED
    moves = gov.summary["governor"]["moves_by_kind"]
    assert moves.get("cap-fail", 0) >= MAX_FAILURES
    assert moves.get("quarantine", 0) == 1
    # Quarantine is containment, not collapse: no safe mode, run finishes.
    assert gov.summary["governor"]["safe_mode"] is False
    assert gov.passed is True


def test_tick_exception_falls_back_to_safe_mode(fault_free):
    """Any controller crash lands on the static-best caps, never raises."""
    gov = _govern("none")
    governor = gov.governor

    def explode():
        raise RuntimeError("boom")

    governor.safe_mode = False
    governor._govern = explode
    governor.on_tick()
    assert governor.safe_mode is True
    assert "boom" in governor.safe_mode_reason
    assert [d.applied_w for d in governor.devices] == pytest.approx(
        list(governor.static_caps)
    )


# ------------------------------------------------------------- fault-free


def test_fault_free_never_enters_safe_mode(fault_free):
    stats = fault_free.summary["governor"]
    assert stats["safe_mode"] is False
    moves = stats["moves_by_kind"]
    assert set(moves) <= {"set"}  # no holds, no reclaims, no quarantines
    assert fault_free.summary["audit"]["no_spurious_safe_mode"] is True


def test_fault_free_governed_not_worse_than_static(fault_free):
    """The regression-gate condition: <= 2% makespan cost fault-free."""
    comp = fault_free.summary["comparison"]
    assert comp["makespan_pct"] <= 2.0
    assert fault_free.summary["audit"]["budget_respected"] is True
    assert fault_free.passed is True


def test_shifting_mix_governed_beats_static_energy(fault_free_shift):
    """Static caps were derived for phase 1 only; the governor re-solves
    for phase 2's kernel and must come out ahead on energy."""
    comp = fault_free_shift.summary["comparison"]
    assert comp["energy_pct"] < 0.0
    assert fault_free_shift.summary["governor"]["safe_mode"] is False
    assert fault_free_shift.summary["audit"]["budget_respected"] is True
    assert fault_free_shift.passed is True


# ---------------------------------------------------------- reproducibility


def test_same_seed_and_plan_reproduce_byte_identical_artifacts(tmp_path):
    runs = [
        _govern("blackout", mix="shift", outdir=str(tmp_path / d), stream=True)
        for d in ("a", "b")
    ]
    assert all(r.passed for r in runs)
    for name in ("govern.json", "decisions.jsonl", "events.jsonl",
                 "faults.jsonl", "result.json", "metrics.prom"):
        a = (runs[0].outdir / name).read_bytes()
        b = (runs[1].outdir / name).read_bytes()
        assert a == b, f"{name} differs between identical (seed, plan) runs"


def test_budget_moves_recorded_in_decision_log_and_stream(tmp_path):
    gov = _govern("blackout", outdir=str(tmp_path / "run"), stream=True)
    notes = [a for a in gov.decisions.annotations
             if a["text"].startswith("budget-move")]
    assert len(notes) == gov.summary["governor"]["moves"]
    events = [json.loads(line) for line in
              (gov.outdir / "events.jsonl").read_text().splitlines()]
    stream_moves = [e for e in events if e.get("type") == "budget-move"]
    assert len(stream_moves) == gov.summary["governor"]["moves"]
    for move in stream_moves:
        assert sum(move["caps"].values()) <= move["budget_w"] + 0.5


def test_artifacts_written(tmp_path):
    gov = _govern("none", outdir=str(tmp_path / "run"))
    names = {p.name for p in gov.outdir.iterdir()}
    assert {"govern.json", "faults.jsonl", "events.jsonl", "decisions.jsonl",
            "manifest.json", "result.json", "metrics.prom"} <= names
    doc = json.loads((gov.outdir / "govern.json").read_text())
    assert doc["audit"] == gov.summary["audit"]
    prom = (gov.outdir / "metrics.prom").read_text()
    assert "repro_govern_budget_w" in prom


# ------------------------------------------------------------------- CLI


def test_cli_govern_exit_code_and_summary(tmp_path, capsys):
    code = main([
        "govern", "--preset", "blackout", "--seed", str(SEED),
        "--outdir", str(tmp_path / "cli"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "audit: PASS" in out
    assert "govern.json" in out


def test_cli_govern_stream_requires_outdir(capsys):
    assert main(["govern", "--stream"]) == 2
    assert "--stream requires --outdir" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -5.0])
def test_run_govern_rejects_unusable_budget(budget):
    with pytest.raises(ValueError, match="budget"):
        _govern("none", budget_w=budget)


def test_governor_rejects_non_finite_budget():
    (phase,) = scenario_phases(PLATFORM, "gemm", "double", "tiny", "steady")
    spec = RunSpec(PLATFORM, phase.spec, CapConfig("HH"), phase.states,
                   plan=FaultPlan(name="none"), governor="efficiency",
                   budget_w=float("nan"))
    with pytest.raises(ValueError, match="budget must be finite"):
        build_run(spec)
