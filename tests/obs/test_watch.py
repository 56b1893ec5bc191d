"""``repro watch``: incremental tailing and dashboard rendering."""

from __future__ import annotations

import json

import pytest

from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec
from repro.experiments.platforms import cap_states, operation_spec
from repro.obs.capture import run_traced
from repro.obs.manifest import MANIFEST_FILENAME
from repro.obs.report import RunReport
from repro.obs.watch import (
    StreamTail,
    render_dashboard,
    watch_command,
    wait_for_run_end,
)

PLATFORM = "24-Intel-2-V100"


# ---------------------------------------------------------------- StreamTail


def test_tail_reads_incrementally(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"t":0.0,"type":"run_info"}\n{"t":0.1,"type":"power"}\n')
    tail = StreamTail(str(path))
    assert [e["type"] for e in tail.poll()] == ["run_info", "power"]
    assert tail.poll() == []  # nothing new
    with open(path, "a") as fh:
        fh.write('{"t":0.2,"type":"run_end"}\n')
    assert [e["type"] for e in tail.poll()] == ["run_end"]


def test_tail_buffers_partial_line_until_newline(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"t":0.0,"type":"run_info"}\n{"t":0.1,"ty')
    tail = StreamTail(str(path))
    assert len(tail.poll()) == 1
    assert tail.pending_partial  # the fragment is in flight, not torn
    assert tail.n_torn == 0
    with open(path, "a") as fh:
        fh.write('pe":"power"}\n')
    (event,) = tail.poll()
    assert event == {"t": 0.1, "type": "power"}
    assert not tail.pending_partial


def test_tail_counts_torn_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"t":0.0,"type":"run_info"}\nnot json at all\n')
    tail = StreamTail(str(path))
    assert len(tail.poll()) == 1
    assert tail.n_torn == 1


def test_tail_missing_file_returns_nothing(tmp_path):
    tail = StreamTail(str(tmp_path / "nope.jsonl"))
    assert tail.poll() == []


# ----------------------------------------------------------------- dashboard


def _snapshot(**over):
    snap = {
        "t": 1.5,
        "run_info": {"platform": PLATFORM, "config": "HL",
                     "scheduler": "dmdas", "seed": "0", "version": "abc"},
        "run_done": False,
        "makespan": None,
        "n_events": 100,
        "tasks_done": 10,
        "n_tasks_expected": 64,
        "gpu_caps": [250.0, 100.0],
        "task_p50_s": 0.01,
        "task_p99_s": 0.02,
        "power_w": {"gpu0": 200.0, "gpu1": 100.0, "cpu0": 60.0},
        "total_power_w": 360.0,
        "backlog": {"gpu-w0": 0.5, "gpu-w1": 0.1, "cpu-w0": 0.0},
        "n_anomalies": 1,
        "n_faults": 0,
        "anomalies": [{"t": 1.0, "rule": "idle-gap", "target": "gpu-w1",
                       "detail": "gpu-w1 idle 0.3s while peers ran"}],
    }
    snap.update(over)
    return snap


def test_dashboard_renders_all_sections():
    text = render_dashboard(_snapshot(), rundir="runs/hl")
    assert "repro watch :: runs/hl" in text
    assert "[RUNNING]" in text and "tasks=10/64" in text
    assert "gpu0" in text and "250W cap" in text
    assert "gpu1" in text and "100W cap" in text
    assert "backlog" in text and "gpu-w0" in text
    assert "empty backlog" in text  # cpu-w0 suppressed from the bars
    assert "idle-gap" in text and "gpu-w1 idle" in text


def test_dashboard_marks_done_and_torn():
    text = render_dashboard(
        _snapshot(run_done=True, makespan=2.5),
        n_torn=2, partial_tail=True,
    )
    assert "[DONE]" in text and "makespan 2.5000s" in text
    assert "2 torn line(s) skipped" in text
    assert "unterminated tail" in text


# ------------------------------------------------------------- watch_command


def test_watch_command_rejects_non_run_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        watch_command(str(tmp_path / "empty"))


def test_watch_command_renders_killed_run_prefix(tmp_path):
    """Acceptance: a SIGKILLed streamed run leaves a prefix repro watch
    renders.  Simulated here by truncating a completed stream mid-line."""
    spec = operation_spec(PLATFORM, "gemm", "double", "tiny")
    states = cap_states(PLATFORM, "gemm", "double", "tiny")
    out = tmp_path / "run"
    run_traced(RunSpec(PLATFORM, spec, CapConfig("HL"), states),
               outdir=str(out), stream=True)
    events_path = out / "events.jsonl"
    raw = events_path.read_bytes()
    cut = int(len(raw) * 0.6)
    events_path.write_bytes(raw[:cut])
    (out / "result.json").unlink()  # the killed run never got this far
    frames = []
    agg = watch_command(str(out), out=frames.append)
    text = "".join(frames)
    assert "[RUNNING]" in text  # no run_end in the prefix
    assert agg.tasks_done > 0
    assert agg.n_tasks_expected and agg.tasks_done < agg.n_tasks_expected
    # ... and repro report tolerates the same directory.
    report = RunReport.load(str(out))
    assert report.partial
    rendered = report.render()
    assert "partial run" in rendered


def test_watch_command_follow_ends_at_run_end(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / MANIFEST_FILENAME).write_text("{}")
    events = [
        {"t": 0.0, "type": "run_info", "platform": PLATFORM},
        {"t": 0.0, "type": "run_start", "gpu_caps": [250.0], "n_tasks": 1},
        {"t": 0.5, "type": "interval", "end": 1.0, "resource": "gpu-w0",
         "kind": "task"},
        {"t": 1.0, "type": "run_end", "makespan": 1.0},
    ]
    (out / "events.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in events)
    )
    frames = []
    agg = watch_command(str(out), follow=True, interval_s=0.01,
                        timeout_s=5.0, out=frames.append)
    assert agg.run_done and agg.makespan == 1.0
    assert "[DONE]" in "".join(frames)


def test_wait_for_run_end_times_out_quickly(tmp_path):
    assert wait_for_run_end(str(tmp_path), timeout_s=0.05,
                            interval_s=0.01) is False
    (tmp_path / "result.json").write_text("{}")
    assert wait_for_run_end(str(tmp_path), timeout_s=0.05) is True
