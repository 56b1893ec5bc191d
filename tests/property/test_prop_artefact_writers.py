"""Property-based tests: the artefact writers write what json does.

``DecisionLog.write_jsonl`` writes each line as one ``json.dumps`` call:
a decision appended whole as ``json.dumps(rec.to_record())``, a class-scan
decision compact (class keys, terms, and only the backlogs that changed),
after a class line for each class whose membership it has not written
yet.  Every line must be ``json.dumps`` of itself, and the log must read
back to the same records.  ``write_chrome_trace`` splices counter events
from fixed pieces and must write ``json.dumps(to_chrome_trace(...))``.
The counter tracks and the compact backlogs keep a value only where it
changes, where ``-0.0`` after ``0.0`` and an int after an equal float are
changes.  The draws sit on the edges of that: both zeros, NaN and the
infinities, the smallest subnormal, ints and bools where a float belongs,
``numpy.float64``, names that need escaping, empty lists, classes whose
membership changes mid-log, tables that name a worker or a class twice,
tracks that skip some of their family's times, and records read back
from a file (fresh tuples, no shared identity).
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.obs.decisions import CandidateClass, DecisionLog, DecisionRecord
from repro.sim import Tracer
from repro.tools.chrometrace import (
    CounterTrack,
    change_points,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.tools.powertrace import PowerSample, PowerSampler

#: Finite floats that json spells as ``float.__repr__`` does, with both
#: zeros listed twice so that a zero is often followed by its twin.
PLAIN = [0.0, -0.0, 0.0, -0.0, 0.5, 1.5, 5e-324, 0.1 + 0.2, 1e300, -2.25]
#: Values the fast paths must hand to ``json.dumps``, or spell as it does.
ODD = [math.nan, math.inf, -math.inf, 0, 1, True, False,
       np.float64(0.5), np.float64(-0.0), np.float64(0.0)]

numbers = st.one_of(st.sampled_from(PLAIN), st.sampled_from(PLAIN + ODD),
                    st.floats())
names = st.one_of(
    st.sampled_from(["cpu-w0", "gpu-w1", 'gpu "0"', "back\\slash",
                     "gpü ☃ 電力", "100% %s", ""]),
    st.text(max_size=6),
)


def _oracle_lines(log: DecisionLog) -> str:
    return "".join(
        [json.dumps(rec.to_record()) + "\n" for rec in log.records]
        + [json.dumps({"type": "annotation", **ann}) + "\n"
           for ann in log.annotations]
    )


@st.composite
def scan_tables(draw) -> tuple[int, dict, dict]:
    """A scheduler's class table over a backlog list of ``width`` workers
    (key to ``(class_key, workers, indices)``), and the same table after
    an exclusion: each class's first member dropped.  Names may repeat
    within a table, which makes the writer write its decisions whole."""
    width = draw(st.integers(1, 6))
    distinct = draw(st.booleans())
    table = {}
    for key in range(draw(st.integers(1, 3))):
        members = tuple(draw(st.lists(st.integers(0, width - 1), max_size=3,
                                      unique=True)))
        tag = f"#{key}" if distinct else ""
        table[key] = (draw(names) + tag, tuple(
            draw(names) + (f"#{m}" if distinct else "") for m in members
        ), members)
    excluded = {key: (class_key, workers[1:], indices[1:])
                for key, (class_key, workers, indices) in table.items()}
    return width, table, excluded


@st.composite
def decision_logs(draw) -> DecisionLog:
    """Class-scan decisions and records appended whole, interleaved.

    Appended records draw from a few placement classes, each with two
    memberships built once and shared by identity across records, as the
    scheduler's side table is: all members, and one member excluded.
    Scan decisions switch between a table and its excluded twin, which is
    what an exclusion and a re-admission do.  Float tuples come from a
    small pool per length, so the same bits recur.
    """
    classes = []
    for key in draw(st.lists(names, min_size=1, max_size=3)):
        workers = tuple(draw(st.lists(names, max_size=3)))
        indices = tuple(draw(st.lists(
            st.one_of(st.integers(0, 30), st.sampled_from([True, 1.0])),
            min_size=len(workers), max_size=len(workers),
        )))
        classes.append((key, workers, indices))
        classes.append((key, workers[1:], indices[1:]))
    pools: dict[int, list[tuple]] = {}

    def floats(n: int) -> tuple:
        pool = pools.get(n)
        if pool is None:
            pool = pools[n] = [(0.0,) * n, (-0.0,) * n] + [
                tuple(draw(st.lists(numbers, min_size=n, max_size=n)))
                for _ in range(2)
            ]
        return draw(st.sampled_from(pool))

    width, table, excluded = draw(scan_tables())
    log = DecisionLog()
    for tid in range(draw(st.integers(0, 8))):
        tid = draw(st.one_of(st.just(tid), st.sampled_from([True, 2.0])))
        if draw(st.booleans()):
            task = SimpleNamespace(tid=tid, label=draw(names),
                                   op=SimpleNamespace(kind="gemm"),
                                   priority=draw(st.integers(-3, 3)))
            priced = draw(st.lists(st.sampled_from(sorted(table)), max_size=3))
            terms, ends = [], []
            for _ in priced:
                terms += floats(draw(st.integers(0, 2)))
                ends.append(len(terms))
            log.append_scan(task, draw(numbers), draw(names), draw(numbers),
                            draw(st.sampled_from([table, excluded])),
                            list(floats(width)), priced, terms, ends)
            continue
        candidates = []
        for key, workers, indices in draw(st.lists(st.sampled_from(classes),
                                                   max_size=3)):
            n = len(workers)
            candidates.append(CandidateClass(
                key, workers, indices, floats(n),
                floats(draw(st.integers(0, 2))),
                floats(draw(st.sampled_from([0, n]))),
            ))
        log.append(DecisionRecord(
            tid=tid,
            label=draw(names),
            kind=draw(st.sampled_from(["gemm", "potrf", "ünï"])),
            time=draw(numbers),
            chosen=draw(names),
            chosen_cost=draw(numbers),
            candidates=tuple(candidates),
            priority=draw(st.one_of(st.integers(-3, 3), st.booleans())),
        ))
    for _ in range(draw(st.integers(0, 2))):
        log.annotate(draw(numbers), draw(names), worker=draw(names))
    return log


@settings(max_examples=300, deadline=None)
@given(decision_logs())
@example(DecisionLog())
def test_decision_lines_are_json_dumps(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("dec") / "decisions.jsonl"
    log.write_jsonl(str(path))
    for line in path.read_text().splitlines(keepends=True):
        assert line == json.dumps(json.loads(line)) + "\n"
    # Read back, every record is appended whole and every tuple is fresh.
    back = DecisionLog.read_jsonl(str(path))
    assert _oracle_lines(back) == _oracle_lines(log)
    again = path.with_name("again.jsonl")
    back.write_jsonl(str(again))
    assert again.read_text() == _oracle_lines(back)


#: A scan table of two workers in one class.
_TABLE = {0: ("cpu0@m0", ("cpu-w0", "cpu-w1"), (0, 1))}


def _scan_log(backlogs: list) -> DecisionLog:
    log = DecisionLog()
    for d, backlog in enumerate(backlogs):
        task = SimpleNamespace(tid=d, label="t", op=SimpleNamespace(kind="gemm"),
                               priority=0)
        log.append_scan(task, float(d), "cpu-w0", 0.25, _TABLE, list(backlog),
                        [0], [0.25], [1])
    return log


def _pair(values) -> list:
    return [(type(v), repr(v)) for v in values]


def _emitted(log: DecisionLog, tmp_path) -> tuple[list, dict]:
    """The ``backlogs`` map of each decision line, and each worker's
    backlog track, with values as ``(type, repr)`` pairs."""
    path = tmp_path / "d.jsonl"
    log.write_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert _oracle_lines(DecisionLog.read_jsonl(str(path))) == _oracle_lines(log)
    maps = [dict(zip(rec["backlogs"], _pair(rec["backlogs"].values())))
            for rec in lines if "tid" in rec]
    tracks = {w: _pair(values) for w, (_, values) in log.backlog_columns().items()}
    return maps, tracks


def test_a_negative_zero_after_a_zero_is_emitted_as_a_change(tmp_path):
    # Equal values, different bits: a change in the log, the backlog
    # tracks and the power tracks.
    maps, tracks = _emitted(_scan_log(
        [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (0.0, 0.0)]), tmp_path)
    assert maps == [
        {"cpu-w0": (float, "0.0"), "cpu-w1": (float, "0.0")},
        {"cpu-w0": (float, "-0.0")},
        {"cpu-w0": (float, "0.0"), "cpu-w1": (float, "-0.0")},
        {"cpu-w1": (float, "0.0")},
        {},
    ]
    assert tracks == {"cpu-w0": _pair([0.0, -0.0, 0.0, 0.0]),
                      "cpu-w1": _pair([0.0, -0.0, 0.0, 0.0])}
    sampler = PowerSampler(node=None, runtime=None, samples=[
        PowerSample(t * 0.1, {"gpu0": w})
        for t, w in enumerate([0.0, -0.0, -0.0, 0.0, 5.0, 5.0])
    ])
    (power,) = sampler.counter_tracks()
    assert _pair(power.values) == _pair([0.0, -0.0, 0.0, 5.0, 5.0])
    assert power.times == (0.0, 0.1, 0.30000000000000004, 0.4, 0.5)


def test_an_int_after_an_equal_float_is_emitted_as_a_change(tmp_path):
    maps, tracks = _emitted(_scan_log(
        [(1.0, 2.0), (1, 2.0), (True, 2.0), (True, 2.0), (1.0, 2.0)]), tmp_path)
    assert maps == [
        {"cpu-w0": (float, "1.0"), "cpu-w1": (float, "2.0")},
        {"cpu-w0": (int, "1")},
        {"cpu-w0": (bool, "True")},
        {},
        {"cpu-w0": (float, "1.0")},
    ]
    assert tracks["cpu-w0"] == _pair([1.0, 1, True, 1.0])
    assert tracks["cpu-w1"] == _pair([2.0, 2.0])
    times, values = change_points(range(5), [1.0, 1, 1, np.float64(1.0), 1.0])
    assert (times, _pair(values)) == ([0, 1, 3, 4], _pair([1.0, 1, np.float64(1.0), 1.0]))


def test_non_finite_numbers_are_spelled_by_json(tmp_path):
    log = DecisionLog()
    for backlogs in ((math.nan, 0.5), (math.inf, 0.5), (0.5, -math.inf)):
        log.append(_record(backlogs))
    log.append(_record((0.5, 0.5), time=math.nan))
    log.write_jsonl(str(tmp_path / "d.jsonl"))
    text = (tmp_path / "d.jsonl").read_text()
    assert text == _oracle_lines(log)
    assert "NaN" in text and "-Infinity" in text


def _record(backlogs, terms=(0.25,), time=0.0, key="cpu0@m0",
            workers=("cpu-w0", "cpu-w1"), indices=(2, 3)):
    return DecisionRecord(
        tid=0, label="t", kind="gemm", time=time, chosen=workers[0],
        chosen_cost=0.25,
        candidates=(CandidateClass(key, workers, indices, backlogs, terms,
                                   tuple(b + terms[0] for b in backlogs)),),
    )


# ------------------------------------------------------------- trace.json


@st.composite
def counter_families(draw) -> list[CounterTrack]:
    """Families of tracks: each family shares one unit and one time axis,
    and each of its tracks samples a subsequence of that axis (a worker
    excluded mid-run skips the times it was not priced at)."""
    tracks = []
    for unit in draw(st.lists(st.sampled_from(["W", "s", "", 'µ "s"']),
                              max_size=3)):
        axis = draw(st.lists(numbers, max_size=8))
        values = [draw(numbers) for _ in range(3)] + [0.0, -0.0]
        for name in draw(st.lists(names, max_size=3)):
            kept = draw(st.lists(st.booleans(), min_size=len(axis),
                                 max_size=len(axis)))
            tracks.append(CounterTrack(f"track {name}", tuple(
                (t, draw(st.sampled_from(values)))
                for t, keep in zip(axis, kept) if keep
            ), unit))
    return tracks


@st.composite
def tracers(draw) -> Tracer:
    tracer = Tracer()
    for i in range(draw(st.integers(0, 2))):
        tracer.interval(draw(names), "task", i * 0.5, i * 0.5 + 0.25,
                        label=draw(names))
    return tracer


#: A run of one float across several chunks, broken by both zeros (in a
#: chunk the splice spells), by an int equal to the run's value and by
#: NaN (each in a chunk that ``json.dumps`` spells).
_BROKEN_RUN = (
    [2.0] * 250 + [0.0, -0.0, 2.0, -0.0, 0.0, 0.0, 2.0]
    + [2.0] * 300 + [2, 2.0] + [2.0] * 300 + [math.nan, 2.0, math.nan]
    + [2.0] * 10
)


@settings(max_examples=300, deadline=None)
@given(tracers(), counter_families())
@example(Tracer(), [
    CounterTrack("power a", ((0.0, 1.0), (-0.0, 1.0), (0.5, -0.0)), "W"),
    CounterTrack("power b", ((-0.0, 0.0), (0.0, 2.0), (0.5, 0.0)), "W"),
])
@example(Tracer(), [CounterTrack(
    "power run", tuple((i * 1e-3, v) for i, v in enumerate(_BROKEN_RUN)), "W",
)])
def test_trace_is_json_dumps_of_the_document(tmp_path_factory, tracer, tracks):
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    write_chrome_trace(tracer, str(path), counters=tracks)
    assert path.read_text() == json.dumps(to_chrome_trace(tracer, counters=tracks))
