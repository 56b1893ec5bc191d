"""The streaming ``trace.json`` writer is byte-identical to ``json.dumps``.

:func:`repro.obs.exporters.write_enriched_chrome_trace` never builds the
trace document: it encodes fixed-size chunks of events with the C JSON
encoder and splices them together.  Every case here compares its bytes
against ``json.dumps`` of the in-memory document, at the chunk boundaries
and on inputs whose encoding is not plain ASCII digits.
"""

from __future__ import annotations

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.hardware.catalog import build_platform
from repro.obs.decisions import DecisionLog
from repro.obs.exporters import (
    TRACE_FILENAME,
    enriched_chrome_trace,
    write_enriched_chrome_trace,
)
from repro.runtime import RuntimeSystem
from repro.runtime.schedulers.dm import DMScheduler
from repro.sim import Simulator, Tracer
from repro.tools.chrometrace import (
    WRITE_CHUNK_EVENTS,
    CounterTrack,
    change_points,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.tools.powertrace import PowerSample, PowerSampler


def _assert_identical(tmp_path, tracer, sampler=None, decisions=None):
    path = tmp_path / "trace.json"
    write_enriched_chrome_trace(str(path), tracer, sampler, decisions)
    doc = enriched_chrome_trace(tracer, sampler, decisions)
    assert path.read_text() == json.dumps(doc)
    return doc


def _tracer_with_events(n_events: int) -> Tracer:
    """One resource (one metadata event) plus ``n_events - 1`` intervals."""
    tracer = Tracer()
    for i in range(n_events - 1):
        tracer.interval("gpu0", "task", i * 1e-3, (i + 1) * 1e-3,
                        label=f"t{i}", tid=i)
    return tracer


def test_empty_tracer(tmp_path):
    doc = _assert_identical(tmp_path, Tracer())
    assert doc["traceEvents"] == []


@pytest.mark.parametrize("n_events", [WRITE_CHUNK_EVENTS, WRITE_CHUNK_EVENTS + 1])
def test_chunk_boundaries(tmp_path, n_events):
    doc = _assert_identical(tmp_path, _tracer_with_events(n_events))
    assert len(doc["traceEvents"]) == n_events


def test_labels_that_need_escaping(tmp_path):
    tracer = Tracer()
    tracer.interval('gpu "0"', "task", 0.0, 1.0,
                    label='say "hi" \\ back\tslash\n', note="ünïcødé – 電力")
    tracer.point("cpu0 ☃", "cap", 0.5, label="café", watts=250.0)
    doc = _assert_identical(tmp_path, tracer)
    assert {e["args"].get("name") for e in doc["traceEvents"]
            if e["ph"] == "M"} == {'gpu "0"', "cpu0 ☃"}


def test_non_finite_counter_values(tmp_path):
    tracer = _tracer_with_events(3)
    sampler = PowerSampler(node=None, runtime=None, samples=[
        PowerSample(0.0, {"gpu0": math.nan, "gpu1": 1.0}),
        PowerSample(0.1, {"gpu0": math.inf, "gpu1": -math.inf}),
    ])
    path = tmp_path / "trace.json"
    write_enriched_chrome_trace(str(path), tracer, sampler)
    text = path.read_text()
    assert "NaN" in text and "-Infinity" in text
    assert text == json.dumps(enriched_chrome_trace(tracer, sampler))


def _sampler(n_samples: int, devices=("gpu0",), seed: int = 0) -> PowerSampler:
    """``n_samples`` power samples of full-precision watts per device."""
    rng = random.Random(seed)
    return PowerSampler(node=None, runtime=None, samples=[
        PowerSample(i * 1e-3 + rng.random() * 1e-4,
                    {d: 100.0 + 200.0 * rng.random() for d in devices})
        for i in range(n_samples)
    ])


@pytest.mark.parametrize("n_samples", [
    WRITE_CHUNK_EVENTS - 1, WRITE_CHUNK_EVENTS, WRITE_CHUNK_EVENTS + 1,
    2 * WRITE_CHUNK_EVENTS + 3,
])
def test_counter_track_across_chunk_boundaries(tmp_path, n_samples):
    # Two tracks: the writer starts a new chunk at the second, while the
    # document's event list runs on.
    sampler = _sampler(n_samples, devices=("gpu0", "gpu1"))
    doc = _assert_identical(tmp_path, _tracer_with_events(3), sampler)
    assert sum(e["ph"] == "C" for e in doc["traceEvents"]) == 2 * n_samples


def test_counter_names_that_need_escaping(tmp_path):
    devices = ('gpu "0"', "gpu\\1", "gpü ☃ 電力", "gpu %s 100%")
    doc = _assert_identical(tmp_path, Tracer(), _sampler(5, devices=devices))
    assert {e["name"] for e in doc["traceEvents"]} == {
        f"power {d}" for d in devices
    }


def _assert_counters_identical(tmp_path, counters):
    path = tmp_path / "trace.json"
    write_chrome_trace(Tracer(), str(path), counters=counters)
    doc = to_chrome_trace(Tracer(), counters=counters)
    assert path.read_text() == json.dumps(doc)
    return doc


def test_counter_track_without_unit_uses_the_value_key(tmp_path):
    track = CounterTrack("queue", ((0.0, 1.5), (0.25, 2.0)), unit="")
    doc = _assert_counters_identical(tmp_path, [track])
    assert [e["args"] for e in doc["traceEvents"]] == [
        {"value": 1.5}, {"value": 2.0}
    ]


def test_empty_counter_series(tmp_path):
    tracks = [CounterTrack("empty", ()), CounterTrack("one", ((1.0, -0.0),), "W"),
              CounterTrack("also empty", (), "s")]
    doc = _assert_counters_identical(tmp_path, tracks)
    assert len(doc["traceEvents"]) == 1


def test_counter_values_that_are_not_plain_floats(tmp_path):
    # ints and bools keep json's spelling; numpy floats are floats.
    tracks = [
        CounterTrack("ints", ((0, 1), (1, 2)), "W"),
        CounterTrack("bools", ((0.0, True), (1.0, False)), "W"),
        CounterTrack("numpy", ((np.float64(0.5), np.float64(1e-7)),
                               (np.float64(1.5), np.float64(3.0))), "W"),
        CounterTrack("mixed", ((0.0, 1.0), (1.0, 2)), "W"),
    ]
    _assert_counters_identical(tmp_path, tracks)


@pytest.mark.parametrize("brute_force", [False, True])
def test_backlog_tracks_of_a_logged_run(tmp_path, monkeypatch, brute_force):
    # The brute-force scan logs one pseudo-class per worker; the class scan
    # one class per (arch, memory node).
    monkeypatch.setattr(DMScheduler, "brute_force_placement", brute_force)
    platform = "24-Intel-2-V100"
    tracer = Tracer()
    node = build_platform(platform, Simulator(), tracer)
    log = DecisionLog()
    runtime = RuntimeSystem(node, scheduler="dmdas", seed=0, tracer=tracer,
                            decision_log=log)
    runtime.run(operation_spec(platform, "potrf", "double", "tiny").build_graph())
    if brute_force:
        assert all(len(c.workers) == 1 for r in log for c in r.candidates)
    doc = _assert_identical(tmp_path, tracer, decisions=log)
    # Each worker's track is its backlog at every decision that priced
    # it, cut to its change points.
    for worker in (w.name for w in runtime.workers):
        track = [(e["ts"], e["args"]["s"]) for e in doc["traceEvents"]
                 if e["name"] == f"backlog {worker}"]
        priced = [r for r in log if worker in r.backlog_snapshot()]
        times, values = change_points([r.time * 1e6 for r in priced],
                                      [r.backlog_snapshot()[worker] for r in priced])
        assert track == list(zip(times, values))
        assert track


def test_faulted_chaos_run(tmp_path):
    platform = "24-Intel-2-V100"
    spec = operation_spec(platform, "potrf", "double", "tiny")
    states = cap_states(platform, "potrf", "double", "tiny")
    chaos = run_chaos(
        RunSpec(platform, spec, CapConfig("HH"), states, seed=0, scale="tiny",
                plan=preset_plan("kill-throttle")),
        outdir=str(tmp_path / "chaos"),
    )
    assert chaos.summary["faults_injected"] > 0
    written = (tmp_path / "chaos" / TRACE_FILENAME).read_text()
    doc = enriched_chrome_trace(chaos.tracer, chaos.sampler, chaos.decisions)
    assert written == json.dumps(doc)


def test_writer_memory_stays_below_the_document(tmp_path):
    tracer = _tracer_with_events(32 * WRITE_CHUNK_EVENTS)
    # A large counter track of distinct values; both paths build its
    # CounterTrack, only the document path holds an event dict per sample.
    sampler = _sampler(32 * WRITE_CHUNK_EVENTS)
    tracemalloc.start()
    try:
        doc = enriched_chrome_trace(tracer, sampler)
        _, doc_peak = tracemalloc.get_traced_memory()
        del doc
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        write_enriched_chrome_trace(str(tmp_path / "trace.json"), tracer, sampler)
        _, writer_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert writer_peak - base < doc_peak / 4
