"""End-to-end tests: `repro trace` capture and `repro report` analysis."""

import json

import pytest

from repro.cli import main
from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec
from repro.experiments.platforms import cap_states, operation_spec
from repro.obs.capture import run_traced
from repro.obs.report import RunReport
from repro.tools.chrometrace import counter_series

PLATFORM = "24-Intel-2-V100"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("runs") / "hl"
    spec = operation_spec(PLATFORM, "gemm", "double", "tiny")
    states = cap_states(PLATFORM, "gemm", "double", "tiny")
    return run_traced(
        RunSpec(PLATFORM, spec, CapConfig("HL"), states, scheduler="dmdas",
                seed=0, scale="tiny"),
        str(outdir),
    )


def test_artifact_files_written(traced):
    names = {p.name for p in traced.outdir.iterdir()}
    assert names >= {
        "manifest.json", "result.json", "decisions.jsonl",
        "events.jsonl", "trace.json", "metrics.prom",
    }


def test_manifest_records_cap_config(traced):
    assert traced.manifest.config == "HL"
    assert traced.manifest.gpu_caps_w[0] > traced.manifest.gpu_caps_w[1]
    assert traced.manifest.scheduler == "dmdas"


def test_decisions_cover_all_tasks_and_replay(traced):
    assert len(traced.decisions) == traced.results[0].n_tasks
    assert traced.decisions.verify_replay() == []


def test_metrics_registry_populated(traced):
    reg = traced.registry
    names = set(reg.names())
    assert {
        "repro_task_duration_seconds", "repro_queue_wait_seconds",
        "repro_tasks_total", "repro_transfer_bytes_total",
        "repro_perfmodel_cache_total", "repro_makespan_seconds",
    } <= names
    total = sum(
        m.value for m in reg if m.name == "repro_tasks_total"
    )
    assert total == traced.results[0].n_tasks
    prom = (traced.outdir / "metrics.prom").read_text()
    assert "# TYPE repro_task_duration_seconds histogram" in prom


def test_trace_has_power_and_backlog_counters(traced):
    doc = json.loads((traced.outdir / "trace.json").read_text())
    power = counter_series(doc, "power gpu0")
    backlog = counter_series(doc, "backlog gpu-w0")
    assert len(power) == len(traced.sampler.samples)
    assert backlog and all(v >= 0 for _, v in backlog)


def test_events_stream_is_time_sorted_and_typed(traced):
    report = RunReport.load(str(traced.outdir))
    times = [e["t"] for e in report.events]
    assert times == sorted(times)
    types = {e["type"] for e in report.events}
    assert types == {"interval", "point", "decision", "power"}


def test_capped_gpu_receives_fewer_tasks(traced):
    """Acceptance: under dmdas the L-capped GPU gets fewer tasks than H."""
    report = RunReport.load(str(traced.outdir))
    tasks = {state: n for _, _, state, _, n, _ in report.gpu_task_rows()}
    assert tasks["L"] < tasks["H"]
    ok, notes = report.imbalance_check()
    assert ok and any("OK" in n for n in notes)


def test_state_distribution_table(traced):
    report = RunReport.load(str(traced.outdir))
    rows = {state: per for state, _, _, per in report.state_distribution()}
    assert rows["L"] < rows["H"]


def test_energy_shares_sum_to_100(traced):
    report = RunReport.load(str(traced.outdir))
    assert sum(s for _, _, s in report.energy_shares()) == pytest.approx(100.0)


def test_decision_audit_clean(traced):
    audit = RunReport.load(str(traced.outdir)).decision_audit()
    assert audit["n_mismatches"] == 0
    assert audit["covers_all_tasks"] is True


def test_render_report_mentions_key_sections(traced):
    text = RunReport.load(str(traced.outdir)).render()
    for marker in ("[energy]", "[tasks]", "[check]", "[decisions]", "config HL"):
        assert marker in text


def test_config_mismatch_rejected(tmp_path):
    spec = operation_spec(PLATFORM, "gemm", "double", "tiny")
    states = cap_states(PLATFORM, "gemm", "double", "tiny")
    with pytest.raises(ValueError, match="states for"):
        run_traced(RunSpec(PLATFORM, spec, CapConfig("HHLL"), states),
                   str(tmp_path))


def test_cli_trace_then_report(tmp_path, capsys):
    rundir = tmp_path / "run"
    assert main([
        "trace", "--platform", PLATFORM, "--config", "HL",
        "--scale", "tiny", "--outdir", str(rundir),
    ]) == 0
    assert "decisions" in capsys.readouterr().out
    assert main(["report", str(rundir)]) == 0
    out = capsys.readouterr().out
    assert "GPU task distribution" in out
    assert "replay mismatches" in out


def test_report_with_zero_decision_records(traced, tmp_path, capsys):
    """`repro report` must degrade gracefully when the decision log exists
    but holds no records (e.g. a run captured with logging disabled)."""
    import shutil

    rundir = tmp_path / "no-decisions"
    shutil.copytree(traced.outdir, rundir)
    (rundir / "decisions.jsonl").write_text("")
    report = RunReport.load(str(rundir))
    audit = report.decision_audit()
    assert audit == {
        "n_decisions": 0, "n_mismatches": 0, "covers_all_tasks": False,
    }
    text = report.render()
    assert "no decision log in this run directory" in text
    assert "[energy]" in text  # the rest of the report still renders
    assert main(["report", str(rundir)]) == 0
    assert "no decision log" in capsys.readouterr().out


def test_report_decision_coverage_counts_distinct_tasks(traced, tmp_path):
    """Coverage is distinct tids, not record count: fault-recovery retries
    log a second decision for the same task without adding coverage."""
    import shutil

    rundir = tmp_path / "retried"
    shutil.copytree(traced.outdir, rundir)
    lines = (rundir / "decisions.jsonl").read_text().splitlines()
    # Duplicate the first record (a retry re-decides the same tid).
    (rundir / "decisions.jsonl").write_text(
        "\n".join([lines[0]] + lines) + "\n"
    )
    audit = RunReport.load(str(rundir)).decision_audit()
    assert audit["n_decisions"] == len(lines) + 1
    assert audit["covers_all_tasks"] is True


def test_cli_experiment_outdir(tmp_path, capsys):
    assert main(["table1", "--scale", "tiny", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    saved = tmp_path / "table1"
    assert (saved / "result.csv").exists()
    manifest = json.loads((saved / "manifest.json").read_text())
    assert manifest["experiment"] == "table1"
    assert manifest["scale"] == "tiny"
