"""Chrome trace-event export (``chrome://tracing`` / Perfetto).

Converts a :class:`~repro.sim.tracing.Tracer` into the Trace Event JSON
format, one timeline row per resource, so executions can be inspected in
any Perfetto-compatible viewer — the workflow StarPU users get from its
FxT traces.

Counter tracks (``ph: "C"``) can be attached alongside the timeline rows:
Perfetto renders them as stacked area charts, which is how per-device
instantaneous power and per-worker backlog line up against the task
intervals (power dips become visible exactly where a cap state engages).
"""

from __future__ import annotations

import json
from itertools import groupby, islice
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

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


def _counter_chunks(track: CounterTrack, stamps: dict) -> Iterator[str]:
    """One track's counter events as JSON text, :data:`WRITE_CHUNK_EVENTS`
    events per chunk, each chunk exactly what ``json.dumps`` writes for
    those events between its list brackets (at the default time unit,
    1 simulated second = 10^6 µs).

    Counter events make up almost all of a governed run's trace, and only
    their timestamp and value vary, so they are spliced from fixed pieces
    instead of one dict and one encoder pass each: the name and value key
    are encoded once per track with ``json.dumps`` (escaping included), and
    the numbers with ``float.__repr__``, which is how the encoder spells a
    finite float.  ``stamps`` maps a time to its rendered timestamp and is
    shared by the tracks of one family (see :func:`write_chrome_trace`), so
    each distinct time is rendered once per family, not once per track.
    A zero time is never a key (``-0.0 == 0.0``, but the two spell
    differently), nor is a time whose timestamp is not finite.

    A track's value usually repeats the one before it (a power level held
    between cap changes, an unchanged backlog), so a value that is an
    exact ``float``, nonzero and equal to the previous value of the track,
    itself an exact ``float``, reuses that value's text: equal nonzero
    floats have equal bits.  Zeros of either sign, ints, bools, float
    subclasses such as ``numpy.float64`` and NaN are spelled afresh each
    time.  Only the previous value is held, so the memo never grows.  A chunk
    holding a value that is not a float (the repr raises ``TypeError``) or
    a number that is not finite (its repr contains an ``n``: ``nan``,
    ``inf``) is encoded by ``json.dumps`` instead, which writes ints,
    ``NaN`` and ``Infinity`` as the in-memory document does.
    """
    value_key = track.unit or "value"
    head = _COUNTER_HEAD % json.dumps(track.name)
    mid = _COUNTER_MID % json.dumps(value_key)
    between = "}}, " + head
    all_times, all_values = track.times, track.values
    # float.__mul__ returns a float, or NotImplemented, whose repr raises.
    scale = (1e6).__mul__

    def stamp(t):
        text = stamps.get(t)
        if text is None:
            text = float.__repr__(scale(t))
            if t and "n" not in text:
                stamps[t] = text
        return text

    spell = float.__repr__
    prev = text = None  # the track's last exact-float value and its text
    for lo in range(0, len(all_times), WRITE_CHUNK_EVENTS):
        times = all_times[lo:lo + WRITE_CHUNK_EVENTS]
        values = all_values[lo:lo + WRITE_CHUNK_EVENTS]
        try:
            try:
                # Every time already stamped: all finite by construction.
                ts = list(map(stamps.__getitem__, times))
                plain = True
            except KeyError:
                ts = list(map(stamp, times))
                plain = "n" not in "".join(ts)
            vs = []
            for v in values:
                if type(v) is not float:
                    prev = None
                    vs.append(spell(v))
                    continue
                if v != prev or not v:
                    prev = v
                    text = spell(v)
                vs.append(text)
            plain = plain and "n" not in "".join(vs)
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

    Consecutive tracks with the same unit are one *family* sharing a time
    axis: the power tracks (W) sample the sampler's ticks, the backlog
    tracks (s) the decision times.  Each family gets a fresh timestamp
    memo, dropped when the family ends, so every distinct time is
    rendered once per family and the writer holds at most one axis.
    """
    events = iter_chrome_events(tracer)
    with open(path, "w") as fh:
        fh.write('{"traceEvents": [')
        sep = ""
        while batch := list(islice(events, WRITE_CHUNK_EVENTS)):
            fh.write(sep)
            fh.write(json.dumps(batch)[1:-1])
            sep = ", "
        for _, family in groupby(counters or (), key=attrgetter("unit")):
            stamps: dict = {}
            for track in family:
                for chunk in _counter_chunks(track, stamps):
                    fh.write(sep)
                    fh.write(chunk)
                    sep = ", "
        fh.write('], "displayTimeUnit": "ms"}')
