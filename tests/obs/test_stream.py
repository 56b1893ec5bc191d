"""Live telemetry: serializer, bus, writer, aggregator, watchdogs, e2e."""

from __future__ import annotations

import json

from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.obs.capture import run_traced
from repro.obs.exporters import read_events_jsonl_tolerant
from repro.obs.stream import (
    DRIFT_RATIO,
    FLUSH_EVERY,
    FLUSH_NOW_TYPES,
    IDLE_GAP_S,
    REARM_S,
    OnlineAggregator,
    StreamWriter,
    TelemetryBus,
    Watchdogs,
    jsonline,
    publish_run_info,
    run_info_event,
    run_info_from_manifest,
)

PLATFORM = "24-Intel-2-V100"


class FakeClock:
    def __init__(self):
        self.now = 0.0


# ------------------------------------------------------------------ jsonline


def test_jsonline_round_trips_like_json_dumps():
    cases = [
        {"t": 0.25, "type": "interval", "resource": "gpu-w0", "end": 1.5},
        {"t": 1, "type": "decision", "backlog": {"a": 0.5, "b": 0}},
        {"type": "x", "s": 'quote " and \\backslash', "u": "müller/π"},
        {"type": "x", "b": True, "n": None, "list": [1, "two", 3.0]},
        {"type": "x", "nested": {"deep": {"er": [True, None]}}},
        {"type": "x", "neg": -1.5e-7, "big": 10**18},
    ]
    for event in cases:
        assert json.loads(jsonline(event)) == json.loads(json.dumps(event))


# ----------------------------------------------------------------------- bus


def test_bus_stamps_time_from_clock_and_counts():
    clock = FakeClock()
    bus = TelemetryBus(clock=clock)
    seen = []
    bus.subscribe(seen.append)
    clock.now = 3.5
    bus.publish({"type": "power"})
    bus.publish({"type": "power", "t": 1.0})  # explicit t wins
    assert [e["t"] for e in seen] == [3.5, 1.0]
    assert bus.n_published == 2


def test_bus_reentrant_publish_preserves_causal_order():
    bus = TelemetryBus()
    order = []

    def reactor(event):
        if event["type"] == "interval":
            bus.publish({"type": "anomaly", "t": event["t"]})

    bus.subscribe(reactor)
    bus.subscribe(lambda e: order.append(e["type"]))
    bus.publish({"type": "interval", "t": 1.0})
    bus.publish({"type": "run_end", "t": 2.0})
    # The anomaly lands right after its trigger and before later events.
    assert order == ["interval", "anomaly", "run_end"]


# -------------------------------------------------------------------- writer


def test_writer_flushes_first_event_then_batches(tmp_path):
    path = tmp_path / "events.jsonl"
    w = StreamWriter(str(path))
    w({"type": "run_info", "t": 0.0})
    assert len(path.read_text().splitlines()) == 1  # immediate flush
    for i in range(10):
        w({"type": "interval", "t": float(i)})
    assert len(path.read_text().splitlines()) == 1  # still buffered
    w({"type": "anomaly", "t": 99.0})  # FLUSH_NOW type drains the buffer
    assert len(path.read_text().splitlines()) == 12
    for i in range(FLUSH_EVERY - 1):
        w({"type": "interval", "t": float(i)})
    assert len(path.read_text().splitlines()) == 12  # one short of a batch
    w({"type": "interval", "t": 100.0})  # a full batch hits the file
    assert len(path.read_text().splitlines()) == 12 + FLUSH_EVERY
    w.close()
    assert w.n_written == 12 + FLUSH_EVERY


def test_flush_now_types_cover_operator_facing_events():
    assert {"run_info", "run_start", "run_end", "anomaly", "fault"} <= set(
        FLUSH_NOW_TYPES
    )


def test_torn_tail_is_skipped_by_tolerant_reader(tmp_path):
    path = tmp_path / "events.jsonl"
    w = StreamWriter(str(path))
    w({"type": "interval", "t": 0.0, "end": 1.0, "resource": "gpu-w0"})
    w({"type": "interval", "t": 1.0, "end": 2.0, "resource": "gpu-w0"})
    w.close()
    # Simulate a kill mid-write: chop the file inside the final line.
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    events, n_torn = read_events_jsonl_tolerant(str(path))
    assert len(events) == 1 and events[0]["t"] == 0.0
    assert n_torn == 1


# ---------------------------------------------------------------- aggregator


def _interval(t, end, worker, **extra):
    return {"t": t, "type": "interval", "end": end, "resource": worker,
            "kind": "task", **extra}


def test_aggregator_tracks_tasks_power_and_run_state():
    agg = OnlineAggregator()
    agg({"t": 0.0, "type": "run_info", "platform": PLATFORM, "config": "HL"})
    agg({"t": 0.0, "type": "run_start", "gpu_caps": [250.0, 100.0],
         "n_tasks": 4, "n_workers": 2, "scheduler": "dmdas"})
    agg(_interval(0.0, 1.0, "gpu-w0"))
    agg(_interval(0.0, 3.0, "gpu-w1"))
    agg({"t": 1.0, "type": "power", "total_w": 300.0,
         "gpu0": 200.0, "gpu1": 100.0})
    agg({"t": 2.0, "type": "decision", "backlog": {"gpu-w0": 0.5}})
    snap = agg.snapshot()
    assert snap["tasks_done"] == 2
    assert snap["n_tasks_expected"] == 4
    assert snap["gpu_caps"] == [250.0, 100.0]
    assert snap["power_w"] == {"gpu0": 200.0, "gpu1": 100.0}
    assert snap["total_power_w"] == 300.0
    assert snap["backlog"] == {"gpu-w0": 0.5}
    assert snap["task_p50_s"] == 1.0 and snap["task_p99_s"] == 3.0
    assert snap["run_done"] is False
    agg({"t": 3.0, "type": "run_end", "makespan": 3.0, "n_tasks": 2})
    assert agg.run_done and agg.makespan == 3.0


def test_aggregator_windowed_quantiles_respect_sim_time():
    agg = OnlineAggregator()
    agg(_interval(0.0, 1.0, "w"))    # old: duration 1.0
    agg(_interval(9.0, 9.1, "w"))    # recent: duration 0.1
    recent = agg.duration_quantiles(window_s=1.0)
    assert recent["n"] == 1 and abs(recent["p50"] - 0.1) < 1e-9


# ----------------------------------------------------------------- watchdogs


def _wired():
    bus = TelemetryBus()
    agg = OnlineAggregator()
    dogs = Watchdogs(agg, bus)
    bus.subscribe(agg)
    bus.subscribe(dogs)
    return bus, agg, dogs


def test_idle_gap_fires_only_when_peers_progressed():
    bus, agg, dogs = _wired()
    bus.publish(_interval(0.0, 0.1, "gpu-w0"))
    bus.publish(_interval(0.0, 0.1, "gpu-w1"))
    # gpu-w1 keeps working; gpu-w0 goes quiet then resumes at 1.0.
    assert 1.0 - 0.1 > IDLE_GAP_S
    bus.publish(_interval(0.1, 0.9, "gpu-w1"))
    bus.publish(_interval(1.0, 1.1, "gpu-w0"))
    assert [a["rule"] for a in dogs.raised] == ["idle-gap"]
    assert dogs.raised[0]["target"] == "gpu-w0"


def test_idle_gap_silent_when_everyone_stalled():
    bus, agg, dogs = _wired()
    bus.publish(_interval(0.0, 0.1, "gpu-w0"))
    bus.publish(_interval(0.0, 0.1, "gpu-w1"))
    # A global dependency stall: nobody ran until 1.0.
    bus.publish(_interval(1.0, 1.1, "gpu-w0"))
    assert dogs.raised == []


def test_throttle_drift_fires_on_slowdown():
    bus, agg, dogs = _wired()
    t = 0.0
    for _ in range(32):  # baseline: 10 ms tasks
        bus.publish(_interval(t, t + 0.01, "gpu-w1"))
        t += 0.01
    for _ in range(16):  # throttled: 2x slower
        bus.publish(_interval(t, t + 0.02, "gpu-w1"))
        t += 0.02
    drift = [a for a in dogs.raised if a["rule"] == "throttle-drift"]
    assert drift and drift[0]["target"] == "gpu-w1"
    assert drift[0]["ratio"] >= DRIFT_RATIO


def test_backlog_imbalance_fires_and_rearms():
    bus, agg, dogs = _wired()
    assert 0.1 < REARM_S < 0.8
    bus.publish({"t": 0.0, "type": "decision",
                 "backlog": {"gpu-w0": 0.4, "gpu-w1": 0.0}})
    bus.publish({"t": 0.1, "type": "decision",
                 "backlog": {"gpu-w0": 0.4, "gpu-w1": 0.0}})  # inside rearm
    bus.publish({"t": 0.8, "type": "decision",
                 "backlog": {"gpu-w0": 0.4, "gpu-w1": 0.0}})  # re-armed
    hits = [a for a in dogs.raised if a["rule"] == "backlog-imbalance"]
    assert [a["t"] for a in hits] == [0.0, 0.8]


def test_anomalies_reach_every_subscriber_via_the_bus():
    seen = []
    bus, agg, dogs = _wired()
    bus.subscribe(lambda e: seen.append(e["type"]))
    bus.publish({"t": 0.0, "type": "decision",
                 "backlog": {"a": 0.4, "b": 0.0}})
    assert seen == ["decision", "anomaly"]
    assert agg.anomalies and agg.anomalies[0]["rule"] == "backlog-imbalance"


def _rounds():
    """Sixty rounds of three task intervals, one round per 0.1 s.

    ``gpu-w0`` slows 3x from round 40 (throttle-drift); ``gpu-w1`` goes
    quiet for rounds 20-25 while ``gpu-w3`` fills its slot (idle-gap on
    its return); ``gpu-w2`` is steady.  Every round starts at one instant
    and leads with ``gpu-w0``, so per-event and per-round delivery open the
    watchdogs' cadence gate at the same times with the same drift state.
    """
    for r in range(60):
        t = r / 10
        slow = 0.03 if r >= 40 else 0.01
        middle = "gpu-w3" if 20 <= r <= 25 else "gpu-w1"
        yield [(t, worker, t + dur, f"task{r}", "gemm")
               for worker, dur in (("gpu-w0", slow), (middle, 0.01),
                                   ("gpu-w2", 0.01))]


def _replay(as_dicts: bool):
    """Drive an aggregator and watchdogs through a bus either as dict
    events, one at a time (how ``repro report``/``watch`` replay a file),
    or as the engine's tuple fast lane, delivered one round per batch."""
    bus = TelemetryBus(batch=1 if as_dicts else 3)
    agg = OnlineAggregator()
    dogs = Watchdogs(agg, bus)
    bus.subscribe(agg)
    bus.subscribe(dogs)
    bus.publish({"t": 0.0, "type": "run_start", "gpu_caps": [300.0] * 4,
                 "n_tasks": 180})
    for items in _rounds():
        for t, worker, end, label, kind in items:
            if as_dicts:
                bus.publish({"t": t, "type": "interval", "resource": worker,
                             "kind": "task", "end": end, "label": label,
                             "task_kind": kind})
            else:
                bus.publish_interval(t, worker, end, label, kind)
    bus.publish({"t": 6.0, "type": "run_end", "makespan": 6.0})
    bus.close()
    return agg.snapshot(), dogs.raised


def test_dict_and_tuple_paths_agree():
    dict_snap, dict_raised = _replay(as_dicts=True)
    tuple_snap, tuple_raised = _replay(as_dicts=False)
    assert {a["rule"] for a in dict_raised} == {"idle-gap", "throttle-drift"}
    assert dict_snap["tasks_done"] == 180
    assert tuple_snap == dict_snap
    assert tuple_raised == dict_raised


# ------------------------------------------------------------------ identity


def test_run_info_event_and_gauge(tmp_path):
    spec = operation_spec(PLATFORM, "gemm", "double", "tiny")
    states = cap_states(PLATFORM, "gemm", "double", "tiny")
    traced = run_traced(RunSpec(PLATFORM, spec, CapConfig("HL"), states),
                        outdir=str(tmp_path / "run"))
    info = run_info_from_manifest(traced.manifest)
    assert set(info) == {"version", "platform", "scheduler", "config", "op",
                         "seed", "cache_fingerprint"}
    assert all(isinstance(v, str) for v in info.values())
    event = run_info_event(info, t=0.0)
    assert event["type"] == "run_info" and event["platform"] == PLATFORM
    # Every traced run's Prometheus snapshot carries the identity gauge.
    text = (tmp_path / "run" / "metrics.prom").read_text()
    assert "repro_run_info{" in text


# ------------------------------------------------------------------- end2end


def _traced(tmpdir, **kw):
    spec = operation_spec(PLATFORM, "gemm", "double", "tiny")
    states = cap_states(PLATFORM, "gemm", "double", "tiny")
    return run_traced(RunSpec(PLATFORM, spec, CapConfig("HL"), states),
                      outdir=str(tmpdir), **kw)


def test_streamed_run_matches_posthoc_run(tmp_path):
    plain = _traced(tmp_path / "plain")
    streamed = _traced(tmp_path / "streamed", stream=True)
    # Bit-identity: attaching the whole telemetry stack must not perturb
    # the simulation.
    assert streamed.results == plain.results
    events, n_torn = read_events_jsonl_tolerant(
        str(tmp_path / "streamed" / "events.jsonl")
    )
    assert n_torn == 0
    types = [e["type"] for e in events]
    assert types[0] == "run_info"
    assert "run_start" in types and types[-1] == "run_end"
    assert types.count("interval") == plain.results[0].n_tasks
    assert any(t == "decision" for t in types)
    assert any(t == "power" for t in types)
    # The streamed header identifies the run.
    assert events[0]["platform"] == PLATFORM and events[0]["config"] == "HL"
    assert streamed.bus is not None and streamed.aggregator is not None
    assert streamed.aggregator.run_done


def test_streamed_chaos_anomalies_appear_before_run_end(tmp_path):
    """Acceptance: the seeded throttle plan's watchdog anomalies are in the
    live stream strictly before run completion, in sim-clock order."""
    spec = operation_spec(PLATFORM, "potrf", "double", "tiny")
    states = cap_states(PLATFORM, "potrf", "double", "tiny")
    chaos = run_chaos(
        RunSpec(PLATFORM, spec, CapConfig("HH"), states, scheduler="dmdas",
                seed=0, scale="tiny", plan=preset_plan("kill-throttle")),
        outdir=str(tmp_path / "chaos"), stream=True,
    )
    assert chaos.anomalies, "watchdogs saw nothing during the faulted run"
    events, _ = read_events_jsonl_tolerant(
        str(tmp_path / "chaos" / "events.jsonl")
    )
    types = [e["type"] for e in events]
    assert "fault" in types  # injections streamed live
    run_end_idx = types.index("run_end")
    anomaly_idxs = [i for i, t in enumerate(types) if t == "anomaly"]
    assert anomaly_idxs, "no anomalies in the stream"
    assert all(i < run_end_idx for i in anomaly_idxs)
    end_t = events[run_end_idx]["t"]
    anomaly_ts = [events[i]["t"] for i in anomaly_idxs]
    assert all(t <= end_t for t in anomaly_ts)
    assert anomaly_ts == sorted(anomaly_ts)
    # ... and the in-memory record agrees with the stream.
    assert len(chaos.anomalies) == len(anomaly_idxs)


def test_publish_run_info_gauge_labels():
    reg_events = []

    class FakeGauge:
        def set(self, v):
            reg_events.append(v)

    class FakeRegistry:
        def gauge(self, name, help=None, labels=None):
            assert name == "repro_run_info"
            assert labels["platform"] == "p"
            return FakeGauge()

    publish_run_info(FakeRegistry(), {"platform": "p"})
    assert reg_events == [1.0]
