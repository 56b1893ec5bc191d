"""Tests for the Chrome trace-event exporter."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.catalog import build_platform
from repro.linalg import assign_priorities, gemm_graph
from repro.runtime import RuntimeSystem
from repro.sim import Simulator, Tracer
from repro.tools import to_chrome_trace
from repro.tools.chrometrace import (
    CounterTrack,
    counter_series,
    write_chrome_trace,
)


@pytest.fixture
def tracer():
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    tr = Tracer()
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1, tracer=tr)
    graph, *_ = gemm_graph(1440 * 4, 1440, "double")
    assign_priorities(graph)
    rt.run(graph)
    return tr


def test_trace_is_json_serialisable(tracer):
    doc = to_chrome_trace(tracer)
    text = json.dumps(doc)
    assert json.loads(text)["traceEvents"]


def test_complete_events_match_intervals(tracer):
    doc = to_chrome_trace(tracer)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == len(tracer.intervals)
    for e in xs:
        assert e["dur"] >= 0 and e["ts"] >= 0


def test_thread_names_cover_resources(tracer):
    doc = to_chrome_trace(tracer)
    names = {
        e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"
    }
    assert set(tracer.resources()) == names


def test_instant_events_from_points():
    tr = Tracer()
    tr.interval("gpu0", "task", 0.0, 1.0)
    tr.point("gpu0", "cap", 0.5, "216W")
    doc = to_chrome_trace(tr)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 1 and instants[0]["name"] == "216W"


def test_write_chrome_trace(tmp_path, tracer):
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path))
    assert json.loads(path.read_text())["displayTimeUnit"] == "ms"


def test_point_on_interval_free_resource_gets_own_row():
    # Regression: a point on a resource with no intervals used to collapse
    # onto tid 0 (another resource's row) with no thread-name metadata.
    tr = Tracer()
    tr.interval("gpu-w0", "task", 0.0, 1.0)
    tr.point("gpu1", "cap", 0.25, "100W")
    doc = to_chrome_trace(tr)
    instant = next(e for e in doc["traceEvents"] if e["ph"] == "i")
    interval = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert instant["tid"] != interval["tid"]
    names = {
        e["tid"]: e["args"]["name"]
        for e in doc["traceEvents"] if e["ph"] == "M"
    }
    assert names[instant["tid"]] == "gpu1"
    assert names[interval["tid"]] == "gpu-w0"


def test_counter_track_round_trip():
    tr = Tracer()
    tr.interval("gpu-w0", "task", 0.0, 1.0)
    series = [(0.0, 55.0), (0.5, 250.0), (1.0, 100.0)]
    track = CounterTrack.from_samples("power gpu0", series, unit="W")
    doc = to_chrome_trace(tr, counters=[track])
    events = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert all(e["args"] == {"W": v} for e, (_, v) in zip(events, series))
    assert counter_series(doc, "power gpu0") == series
    assert counter_series(doc, "no such track") == []


def test_counter_tracks_survive_serialisation(tmp_path, tracer):
    track = CounterTrack.from_samples("backlog gpu-w0", [(0.0, 1.5)], unit="s")
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, str(path), counters=[track])
    doc = json.loads(path.read_text())
    assert counter_series(doc, "backlog gpu-w0") == [(0.0, 1.5)]


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.floats(min_value=1e-6, max_value=1e4),
              st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=20,
))
def test_counter_series_recovers_times_within_one_ulp(samples):
    track = CounterTrack.from_samples("power gpu0", samples, unit="W")
    doc = json.loads(json.dumps(to_chrome_trace(Tracer(), counters=[track])))
    recovered = counter_series(doc, "power gpu0")
    assert [v for _, v in recovered] == [v for _, v in samples]
    for (t, _), (back, _) in zip(samples, recovered):
        assert abs(back - t) <= math.ulp(t)
