"""Exporters: JSONL event stream and enriched Perfetto traces.

Three consumers of one run's telemetry:

- :func:`write_events_jsonl` — a single time-ordered JSONL stream merging
  trace intervals, instant points, scheduler decisions and power samples;
  ``repro report`` reads this back, and it greps/jqs well.
- :func:`backlog_counter_tracks` — per-worker backlog series recovered from
  the decision log's backlog snapshots.
- :func:`enriched_chrome_trace` — the Perfetto document with counter tracks
  (per-device instantaneous power, per-worker backlog) attached, so power
  dips render aligned with cap states and task rows.  Each track holds
  its change points: a point where the value differs in type or bits
  from the one before, plus the track's first and last point.  Perfetto
  draws a counter as a step function, so the curve is the one every
  sample would draw.

``decisions.jsonl`` (:meth:`~repro.obs.decisions.DecisionLog.write_jsonl`)
has two line shapes, each one ``json.dumps`` call.  A decision appended
whole (the brute-force scan, a log read back) is a full record:
``json.dumps(rec.to_record())``, with every class's members, backlogs,
terms and costs.  A class-scan decision is compact: its scalars, its
class keys, each class's terms and the backlogs that changed since they
were last written, after a ``{"class", "workers", "indices"}`` line for
each class whose membership the file has not stated yet.
:meth:`~repro.obs.decisions.DecisionLog.read_jsonl` reads both.

Prometheus text snapshots come from
:meth:`repro.obs.metrics.MetricsRegistry.to_prometheus`.
"""

from __future__ import annotations

import json
from typing import Iterator, Optional

from repro.obs.decisions import DecisionLog
from repro.sim.tracing import Tracer
from repro.tools.chrometrace import (
    CounterTrack,
    to_chrome_trace,
    write_chrome_trace,
)

EVENTS_FILENAME = "events.jsonl"
TRACE_FILENAME = "trace.json"
DECISIONS_FILENAME = "decisions.jsonl"
METRICS_FILENAME = "metrics.prom"
RESULT_FILENAME = "result.json"
FAULTS_FILENAME = "faults.jsonl"
CHAOS_FILENAME = "chaos.json"
GOVERN_FILENAME = "govern.json"


def iter_events(
    tracer: Optional[Tracer] = None,
    decisions: Optional[DecisionLog] = None,
    sampler=None,
    faults=None,
) -> list[dict]:
    """Merge telemetry sources into one time-sorted list of event dicts.

    Every event carries ``t`` (simulated seconds) and ``type`` (``interval``,
    ``point``, ``decision``, ``power`` or ``fault``); ``sampler`` is anything
    with a ``samples`` list of
    :class:`~repro.tools.powertrace.PowerSample`, ``faults`` an iterable of
    fault/recovery record dicts each carrying a ``t`` key (see
    :mod:`repro.faults`).
    """
    events: list[dict] = []
    if tracer is not None:
        for iv in tracer.intervals:
            events.append({
                "t": iv.start, "type": "interval", "resource": iv.resource,
                "kind": iv.kind, "end": iv.end, "label": iv.label, **iv.info,
            })
        for point in tracer.points:
            events.append({
                "t": point.time, "type": "point", "resource": point.resource,
                "kind": point.kind, "label": point.label, **point.info,
            })
    if decisions is not None:
        for rec in decisions:
            events.append({"t": rec.time, "type": "decision", **rec.to_record()})
    if sampler is not None:
        for sample in sampler.samples:
            events.append({
                "t": sample.time_s, "type": "power",
                "total_w": sample.total_w, **sample.device_w,
            })
    if faults is not None:
        for rec in faults:
            events.append({"t": rec["t"], "type": "fault",
                           **{k: v for k, v in rec.items() if k != "t"}})
    events.sort(key=lambda e: e["t"])
    return events


def write_events_jsonl(
    path: str,
    tracer: Optional[Tracer] = None,
    decisions: Optional[DecisionLog] = None,
    sampler=None,
    faults=None,
) -> int:
    """Write the merged event stream; returns the number of events."""
    events = iter_events(tracer, decisions, sampler, faults)
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")
    return len(events)


def read_events_jsonl_tolerant(path: str) -> tuple[list[dict], int]:
    """Read an event stream, skipping torn lines: ``(events, n_skipped)``.

    The streaming writer makes mid-write files a *normal* state — a run
    killed between flushes (or read while flushing) leaves a truncated
    final line.  Any line that fails to parse is counted and skipped
    instead of raising, so readers always see the valid prefix.
    """
    events: list[dict] = []
    n_skipped = 0
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                n_skipped += 1
    return events, n_skipped


def backlog_counter_tracks(decisions: DecisionLog) -> list[CounterTrack]:
    """Per-worker backlog (seconds of queued estimated work) over time.

    Changes at decision times — exactly the values the scheduler folded
    into its costs, so the tracks explain the decisions they sit next to.
    Read straight off the log's backlog snapshots
    (:meth:`~repro.obs.decisions.DecisionLog.backlog_columns`).
    """
    return list(_backlog_tracks(decisions))


def _backlog_tracks(decisions: DecisionLog) -> Iterator[CounterTrack]:
    """:func:`backlog_counter_tracks` one track at a time, in worker-name
    order, each handed its time and backlog columns as they are."""
    columns = decisions.backlog_columns()
    for worker in sorted(columns):
        times, backlogs = columns.pop(worker)
        yield CounterTrack(f"backlog {worker}", unit="s", times=times, values=backlogs)


def _enriched_counters(
    sampler=None, decisions: Optional[DecisionLog] = None
) -> Iterator[CounterTrack]:
    """Per-device power tracks, then per-worker backlog tracks."""
    if sampler is not None:
        yield from sampler.counter_tracks()
    if decisions is not None:
        yield from _backlog_tracks(decisions)


def enriched_chrome_trace(
    tracer: Tracer,
    sampler=None,
    decisions: Optional[DecisionLog] = None,
    time_unit_us: float = 1e6,
) -> dict:
    """Perfetto document with power and backlog counter tracks attached."""
    return to_chrome_trace(
        tracer, time_unit_us=time_unit_us,
        counters=_enriched_counters(sampler, decisions),
    )


def write_enriched_chrome_trace(
    path: str,
    tracer: Tracer,
    sampler=None,
    decisions: Optional[DecisionLog] = None,
) -> None:
    """Stream :func:`enriched_chrome_trace`'s document to ``path``."""
    write_chrome_trace(
        tracer, path, counters=_enriched_counters(sampler, decisions)
    )
