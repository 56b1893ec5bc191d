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
import tracemalloc

import pytest

from repro.core.capconfig import CapConfig
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.obs.exporters import (
    TRACE_FILENAME,
    enriched_chrome_trace,
    write_enriched_chrome_trace,
)
from repro.sim import Tracer
from repro.tools.chrometrace import WRITE_CHUNK_EVENTS
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


def test_faulted_chaos_run(tmp_path):
    platform = "24-Intel-2-V100"
    spec = operation_spec(platform, "potrf", "double", "tiny")
    states = cap_states(platform, "potrf", "double", "tiny")
    chaos = run_chaos(
        platform, spec, CapConfig("HH"), states, preset_plan("kill-throttle"),
        outdir=str(tmp_path / "chaos"), seed=0, scale="tiny",
    )
    assert chaos.summary["faults_injected"] > 0
    written = (tmp_path / "chaos" / TRACE_FILENAME).read_text()
    doc = enriched_chrome_trace(chaos.tracer, chaos.sampler, chaos.decisions)
    assert written == json.dumps(doc)


def test_writer_memory_stays_below_the_document(tmp_path):
    tracer = _tracer_with_events(32 * WRITE_CHUNK_EVENTS)
    tracemalloc.start()
    try:
        doc = enriched_chrome_trace(tracer)
        _, doc_peak = tracemalloc.get_traced_memory()
        del doc
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        write_enriched_chrome_trace(str(tmp_path / "trace.json"), tracer)
        _, writer_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert writer_peak - base < doc_peak / 4
