"""End-to-end tests: `repro trace` capture and `repro report` analysis."""

import json
from bisect import bisect_right

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


def _bits(value) -> tuple:
    return type(value), repr(value)


def test_trace_has_power_and_backlog_counters(traced):
    doc = json.loads((traced.outdir / "trace.json").read_text())
    power = [(e["ts"], e["args"]["W"]) for e in doc["traceEvents"]
             if e["name"] == "power gpu0"]
    backlog = counter_series(doc, "backlog gpu-w0")
    assert backlog and all(v >= 0 for _, v in backlog)
    # Read as a step function, the power track is every sample at every
    # sampler tick, and it holds only the points where the draw changes
    # (its last point excepted: every track keeps its last).
    stamps = [ts for ts, _ in power]
    for sample in traced.sampler.samples:
        i = bisect_right(stamps, sample.time_s * 1e6) - 1
        assert _bits(power[i][1]) == _bits(sample.device_w["gpu0"])
    assert power[-1][0] == traced.sampler.samples[-1].time_s * 1e6
    for track in (power, backlog):
        values = [_bits(v) for _, v in track[:-1]]
        assert all(a != b for a, b in zip(values, values[1:]))
    assert len(power) < len(traced.sampler.samples) / 4


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
    # Repeat the first decision line (a retry re-decides the same tid).
    first = next(i for i, line in enumerate(lines) if '"tid"' in line)
    lines.insert(first, lines[first])
    (rundir / "decisions.jsonl").write_text("\n".join(lines) + "\n")
    audit = RunReport.load(str(rundir)).decision_audit()
    assert audit["n_decisions"] == len(traced.decisions) + 1
    assert audit["covers_all_tasks"] is True


def test_report_reads_compact_and_full_logs_alike(tmp_path):
    """`repro report` renders the same text from a governed run's compact
    decisions.jsonl as from the same log written as full records."""
    import shutil

    from repro.faults.plan import preset_plan
    from repro.govern import run_govern

    compact = tmp_path / "compact"
    gov = run_govern(PLATFORM, "gemm", "double", preset_plan("kill-throttle", seed=3),
                     mix="shift", outdir=str(compact), seed=3, scale="tiny")
    full = tmp_path / "full"
    shutil.copytree(compact, full)
    log = gov.decisions
    (full / "decisions.jsonl").write_text("".join(
        [json.dumps(rec.to_record()) + "\n" for rec in log.records]
        + [json.dumps({"type": "annotation", **ann}) + "\n" for ann in log.annotations]
    ))
    assert (full / "decisions.jsonl").stat().st_size > 2 * (
        compact / "decisions.jsonl").stat().st_size
    assert log.annotations
    text = RunReport.load(str(compact)).render()
    assert "[decisions]" in text
    assert text.replace(str(compact), "<run>") == RunReport.load(
        str(full)).render().replace(str(full), "<run>")


def test_cli_experiment_outdir(tmp_path, capsys):
    assert main(["table1", "--scale", "tiny", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    saved = tmp_path / "table1"
    assert (saved / "result.csv").exists()
    manifest = json.loads((saved / "manifest.json").read_text())
    assert manifest["experiment"] == "table1"
    assert manifest["scale"] == "tiny"
