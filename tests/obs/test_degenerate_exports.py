"""Degenerate telemetry inputs must still export valid (possibly empty)
artifacts: a zero-event tracer, a decision log with no backlog snapshots,
a power sampler that spent the whole run in a meter blackout."""

from __future__ import annotations

import json

from repro.obs.decisions import CandidateClass, DecisionLog, DecisionRecord
from repro.obs.exporters import (
    backlog_counter_tracks,
    enriched_chrome_trace,
    read_events_jsonl_tolerant,
    write_events_jsonl,
)
from repro.obs.spans import SpanTracer, read_spans_jsonl, validate_trace
from repro.obs.stream import OnlineAggregator, StreamWriter, TelemetryBus
from repro.sim import Tracer
from repro.tools.powertrace import PowerSampler


def test_zero_event_tracer_exports_empty_but_valid(tmp_path):
    tracer = Tracer()
    path = tmp_path / "events.jsonl"
    assert write_events_jsonl(str(path), tracer) == 0
    assert path.exists() and path.read_text() == ""
    events, n_torn = read_events_jsonl_tolerant(str(path))
    assert events == [] and n_torn == 0
    doc = enriched_chrome_trace(tracer)
    json.dumps(doc)  # serializable
    assert doc["traceEvents"] == []


def test_zero_span_tracer_exports_empty_but_valid(tmp_path):
    tr = SpanTracer()
    path = tmp_path / "spans.jsonl"
    assert tr.write_jsonl(str(path)) == 0
    assert read_spans_jsonl(str(path)) == []
    assert validate_trace([]) == []


def _record_without_backlogs(t=0.0):
    cand = CandidateClass(
        class_key="gpu", workers=("gpu-w0",), indices=(0,), backlogs=(),
        terms=(0.01,), costs=(0.01,),
    )
    return DecisionRecord(
        tid=1, label="task", kind="gemm", time=t,
        chosen="gpu-w0", chosen_cost=0.01, candidates=(cand,),
    )


def test_decision_log_without_backlogs_round_trips(tmp_path):
    log = DecisionLog()
    log.append(_record_without_backlogs())
    assert log.records[0].backlog_snapshot() == {}
    assert backlog_counter_tracks(log) == []
    path = tmp_path / "decisions.jsonl"
    log.write_jsonl(str(path))
    back = DecisionLog.read_jsonl(str(path))
    assert len(back) == 1
    assert back.records[0].backlog_snapshot() == {}


def test_streamed_decision_without_backlog_keeps_aggregator_state():
    bus = TelemetryBus()
    agg = OnlineAggregator()
    bus.subscribe(agg)
    log = DecisionLog()
    log.bus = bus
    bus.publish({"t": 0.0, "type": "decision", "backlog": {"gpu-w0": 0.5}})
    log.append(_record_without_backlogs(t=1.0))
    # An empty backlog snapshot must not clobber the last known one.
    assert agg.backlog == {"gpu-w0": 0.5}
    assert agg.n_events == 2


class _FakeNode:
    def power_readings(self):
        return {}


def test_all_blackout_power_sampler_exports_cleanly(tmp_path):
    sampler = PowerSampler(node=None, runtime=None)
    sampler.blackouts.append((0.0, float("inf")))
    assert sampler.samples == []
    assert sampler.devices() == []
    assert sampler.counter_tracks() == []
    assert sampler.peak_w() == 0.0
    path = tmp_path / "events.jsonl"
    assert write_events_jsonl(str(path), sampler=sampler) == 0
    events, n_torn = read_events_jsonl_tolerant(str(path))
    assert events == [] and n_torn == 0


def test_stream_writer_with_zero_events_leaves_empty_file(tmp_path):
    path = tmp_path / "events.jsonl"
    w = StreamWriter(str(path))
    w.close()
    assert path.read_text() == ""
    events, n_torn = read_events_jsonl_tolerant(str(path))
    assert events == [] and n_torn == 0
    snap = OnlineAggregator().snapshot()
    assert snap["tasks_done"] == 0 and snap["makespan"] is None
