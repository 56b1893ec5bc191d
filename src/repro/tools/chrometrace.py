"""Chrome trace-event export (``chrome://tracing`` / Perfetto).

Converts a :class:`~repro.sim.tracing.Tracer` into the Trace Event JSON
format, one timeline row per resource, so executions can be inspected in
any Perfetto-compatible viewer — the workflow StarPU users get from its
FxT traces.

Counter tracks (``ph: "C"``) can be attached alongside the timeline rows:
Perfetto renders them as stacked area charts, which is how per-device
instantaneous power and per-worker backlog line up against the task
intervals (power dips become visible exactly where a cap state engages).
Perfetto draws a counter as a step function, so the samplers hand over
only each series' change points (:func:`change_points`): the same curve
from a small share of the samples.
"""

from __future__ import annotations

import json
from array import array
from itertools import islice
from math import copysign
from struct import pack
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.sim.tracing import Tracer

#: Events per ``json.dumps`` call (or per formatted counter run) in
#: :func:`write_chrome_trace`: enough to amortise the call, few enough that
#: the writer's memory stays small.
WRITE_CHUNK_EVENTS = 256

#: One counter event as ``json.dumps`` spells it is ``head + ts + mid +
#: value + "}}"``, with the track's name and value key filled in once per
#: track (see :func:`_counter_chunks`).
_COUNTER_HEAD = '{"name": %s, "ph": "C", "ts": '
_COUNTER_MID = ', "pid": 0, "args": {%s: '


class CounterTrack:
    """One named counter series, e.g. ``power gpu0`` in watts.

    Held as a time column and a value column, which is how the samplers
    gather them and how :func:`write_chrome_trace` reads them; ``series``
    is the ``(time, value)`` pairs, built when asked for.  Build one from
    pairs (``CounterTrack(name, series, unit)``) or from the columns
    (``CounterTrack(name, unit=unit, times=..., values=...)``).  Either
    way the columns are stored as tuples, and two tracks are equal when
    their name, columns and unit are.
    """

    __slots__ = ("name", "times", "values", "unit")

    def __init__(self, name: str, series: Iterable[tuple[float, float]] = (),
                 unit: str = "", *, times: Optional[Sequence[float]] = None,
                 values: Optional[Sequence[float]] = None) -> None:
        if times is None and values is None:
            pairs = tuple(series)
            times = [t for t, _ in pairs]
            values = [v for _, v in pairs]
        elif times is None or values is None:
            raise ValueError("a counter track needs both times and values, or neither")
        elif len(times) != len(values):
            raise ValueError("a counter track's times and values differ in length")
        self.name = name
        self.times = tuple(times)
        self.values = tuple(values)
        self.unit = unit

    @property
    def series(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.times, self.values))

    def _key(self) -> tuple:
        return self.name, self.times, self.values, self.unit

    def __eq__(self, other: object) -> bool:
        if type(other) is not CounterTrack:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"CounterTrack({self.name!r}, {self.series!r}, unit={self.unit!r})"

    @classmethod
    def from_samples(cls, name: str, samples, unit: str = "") -> "CounterTrack":
        return cls(name, tuple((float(t), float(v)) for t, v in samples), unit)


def same_value(a, b) -> bool:
    """Whether ``b`` repeats ``a``: the same type and the same float bits.

    So ``-0.0`` does not repeat ``0.0``, ``1`` does not repeat ``1.0``,
    and a NaN repeats a NaN with the same payload.
    """
    if type(a) is not type(b):
        return False
    if a == b:
        return bool(a) or copysign(1.0, a) == copysign(1.0, b)
    return a != a and b != b and pack("<d", a) == pack("<d", b)


def change_points(times: Sequence, values: Sequence) -> tuple[list, list]:
    """A counter series cut to its change points: ``(times, values)``.

    A point is kept when its value does not repeat the one before it
    (:func:`same_value`); the first and the last point are always kept, so
    the series spans the same times.  Read as a step function, the kept
    points give every dropped point's value.  A series of exact floats is
    compared as 64-bit patterns, in numpy.
    """
    n = len(values)
    if n <= 2:
        return list(times), list(values)
    if set(map(type, values)) == {float}:
        bits = np.frombuffer(array("d", values), dtype=np.uint64)
        inner = (np.flatnonzero(bits[1:-1] != bits[:-2]) + 1).tolist()
    else:
        inner = [i for i in range(1, n - 1) if not same_value(values[i - 1], values[i])]
    kept = [0, *inner, n - 1]
    return [times[i] for i in kept], [values[i] for i in kept]


def _resource_tids(tracer: Tracer) -> dict[str, int]:
    """Stable tid per resource, covering interval *and* point resources.

    Points on resources that never record an interval (e.g. a cap change on
    an otherwise-idle GPU) used to collapse onto tid 0 with no thread-name
    metadata; registering them here gives every resource its own named row.
    """
    tids = {name: i for i, name in enumerate(tracer.resources())}
    for point in tracer.points:
        if point.resource not in tids:
            tids[point.resource] = len(tids)
    return tids


def iter_chrome_events(
    tracer: Tracer,
    time_unit_us: float = 1e6,
    counters: Optional[Iterable[CounterTrack]] = None,
) -> Iterator[dict]:
    """Yield the trace events: thread metadata, intervals, points, counters.

    ``time_unit_us`` scales simulated seconds to microsecond timestamps
    (default: 1 simulated second = 1 second of trace time).  ``counters``
    are emitted as ``ph: "C"`` counter tracks on their own process row.
    """
    tids = _resource_tids(tracer)
    for resource, tid in tids.items():
        yield {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": resource},
        }
    for iv in tracer.intervals:
        yield {
            "name": iv.label or iv.kind,
            "cat": iv.kind,
            "ph": "X",
            "ts": iv.start * time_unit_us,
            "dur": iv.duration * time_unit_us,
            "pid": 0,
            "tid": tids[iv.resource],
            "args": dict(iv.info),
        }
    for point in tracer.points:
        yield {
            "name": point.label or point.kind,
            "cat": point.kind,
            "ph": "i",
            "ts": point.time * time_unit_us,
            "pid": 0,
            "tid": tids[point.resource],
            "s": "t",
            "args": dict(point.info),
        }
    for track in counters or ():
        value_key = track.unit or "value"
        for t, v in zip(track.times, track.values):
            yield {
                "name": track.name,
                "ph": "C",
                "ts": t * time_unit_us,
                "pid": 0,
                "args": {value_key: v},
            }


def to_chrome_trace(
    tracer: Tracer,
    time_unit_us: float = 1e6,
    counters: Optional[Iterable[CounterTrack]] = None,
) -> dict:
    """The whole trace-event document in memory (see :func:`iter_chrome_events`)."""
    return {
        "traceEvents": list(iter_chrome_events(tracer, time_unit_us, counters)),
        "displayTimeUnit": "ms",
    }


def counter_series(doc: dict, name: str, time_unit_us: float = 1e6) -> list[tuple[float, float]]:
    """Recover one counter track's ``(time_s, value)`` series from a trace
    document, for tests and reports.

    Values come back exactly.  Times come back as ``ts / time_unit_us``
    from the written ``t * time_unit_us``: two roundings, so a recovered
    time is within one ulp of the recorded one, not always equal to it
    (0.12380157034627123 s reads back as 0.12380157034627125 s).
    """
    out = []
    for event in doc["traceEvents"]:
        if event.get("ph") == "C" and event.get("name") == name:
            value = next(iter(event["args"].values()))
            out.append((event["ts"] / time_unit_us, value))
    return out


def _counter_chunks(track: CounterTrack) -> Iterator[str]:
    """One track's counter events as JSON text, :data:`WRITE_CHUNK_EVENTS`
    events per chunk, each chunk exactly what ``json.dumps`` writes for
    those events between its list brackets (at the default time unit,
    1 simulated second = 10^6 µs).

    Only the timestamp and the value vary between a track's events, so
    they are spliced from fixed pieces instead of one dict and one encoder
    pass each: the name and value key are encoded once per track with
    ``json.dumps`` (escaping included), and the numbers with
    ``float.__repr__``, which is how the encoder spells a finite float.
    A chunk holding a value that is not a float (the repr raises
    ``TypeError``) or a number that is not finite (its repr contains an
    ``n``: ``nan``, ``inf``) is encoded by ``json.dumps`` instead, which
    writes ints, ``NaN`` and ``Infinity`` as the in-memory document does.
    """
    value_key = track.unit or "value"
    head = _COUNTER_HEAD % json.dumps(track.name)
    mid = _COUNTER_MID % json.dumps(value_key)
    between = "}}, " + head
    spell = float.__repr__
    # float.__mul__ returns a float, or NotImplemented, whose repr raises.
    scale = (1e6).__mul__
    for lo in range(0, len(track.times), WRITE_CHUNK_EVENTS):
        times = track.times[lo:lo + WRITE_CHUNK_EVENTS]
        values = track.values[lo:lo + WRITE_CHUNK_EVENTS]
        try:
            ts = [spell(scale(t)) for t in times]
            vs = list(map(spell, values))
            plain = "n" not in "".join(ts) + "".join(vs)
        except TypeError:
            plain = False
        if plain:
            yield head + between.join(map(mid.join, zip(ts, vs))) + "}}"
        else:
            yield json.dumps([
                {"name": track.name, "ph": "C", "ts": t * 1e6,
                 "pid": 0, "args": {value_key: v}}
                for t, v in zip(times, values)
            ])[1:-1]


def write_chrome_trace(
    tracer: Tracer,
    path: str,
    counters: Optional[Iterable[CounterTrack]] = None,
) -> None:
    """Serialise the trace to a JSON file loadable by Perfetto.

    The bytes equal ``json.dumps(to_chrome_trace(tracer, counters=...))``,
    but the document is never built: each chunk of
    :data:`WRITE_CHUNK_EVENTS` timeline events goes through one
    ``json.dumps`` call with its list brackets stripped, and the counter
    tracks through :func:`_counter_chunks`.  ``json.dump`` would be simpler
    and much slower, because only the one-shot ``json.dumps`` path uses
    CPython's C encoder.
    """
    events = iter_chrome_events(tracer)
    with open(path, "w") as fh:
        fh.write('{"traceEvents": [')
        sep = ""
        while batch := list(islice(events, WRITE_CHUNK_EVENTS)):
            fh.write(sep)
            fh.write(json.dumps(batch)[1:-1])
            sep = ", "
        for track in counters or ():
            for chunk in _counter_chunks(track):
                fh.write(sep)
                fh.write(chunk)
                sep = ", "
        fh.write('], "displayTimeUnit": "ms"}')
