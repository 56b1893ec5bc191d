"""Property-based tests: the artefact writers spell exactly what json does.

``DecisionLog.write_jsonl`` renders each placement class's header once and
reuses a class's last float-list text while the bits and types repeat;
``write_chrome_trace`` renders each distinct timestamp once per family of
counter tracks.  Both must write the bytes of their oracles:
``json.dumps(rec.to_record()) + "\\n"`` per decision line and
``json.dumps(to_chrome_trace(...))`` for the trace.  The draws sit on the
edges of that reuse: ``-0.0`` right after ``0.0`` (equal, spelled
differently), NaN and the infinities, the smallest subnormal, ints and
bools where a float belongs, ``numpy.float64``, names that need escaping,
empty lists, classes whose membership changes mid-log, tracks that skip
some of their family's times, and records read back from a file (fresh
tuples, no shared identity).
"""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.obs.decisions import CandidateClass, DecisionLog, DecisionRecord
from repro.sim import Tracer
from repro.tools.chrometrace import (
    WRITE_CHUNK_EVENTS,
    CounterTrack,
    to_chrome_trace,
    write_chrome_trace,
)

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
def decision_logs(draw) -> DecisionLog:
    """Records over a few placement classes, sharing the class constants.

    Each class has two memberships, built once and shared by identity
    across records as the scheduler's side table is: all members, and
    one member excluded.  Records switch between them, which is what an
    exclusion and a re-admission do.  Float tuples come from a small
    pool per length, so the same bits recur.
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

    log = DecisionLog()
    for tid in range(draw(st.integers(0, 8))):
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
            tid=draw(st.one_of(st.just(tid), st.sampled_from([True, 2.0]))),
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
    assert path.read_text() == _oracle_lines(log)
    # Read back, every tuple is fresh: no identity to reuse a header by.
    back = DecisionLog.read_jsonl(str(path))
    again = path.with_name("again.jsonl")
    back.write_jsonl(str(again))
    assert again.read_text() == _oracle_lines(back)


def _record(backlogs, terms=(0.25,), time=0.0, key="cpu0@m0",
            workers=("cpu-w0", "cpu-w1"), indices=(2, 3)):
    return DecisionRecord(
        tid=0, label="t", kind="gemm", time=time, chosen=workers[0],
        chosen_cost=0.25,
        candidates=(CandidateClass(key, workers, indices, backlogs, terms,
                                   tuple(b + terms[0] for b in backlogs)),),
    )


def test_a_negative_zero_after_a_zero_keeps_its_sign(tmp_path):
    # Equal tuples, different bits: the class's memo must not answer.
    log = DecisionLog()
    for backlogs in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0)):
        log.append(_record(backlogs))
    log.write_jsonl(str(tmp_path / "d.jsonl"))
    text = (tmp_path / "d.jsonl").read_text()
    assert text == _oracle_lines(log)
    assert text.count('"backlogs": [-0.0, 0.0]') == 1


def test_an_int_after_an_equal_float_keeps_its_spelling(tmp_path):
    log = DecisionLog()
    for backlogs in ((1.0, 2.0), (1, 2.0), (True, 2.0)):
        log.append(_record(backlogs))
    log.write_jsonl(str(tmp_path / "d.jsonl"))
    assert (tmp_path / "d.jsonl").read_text() == _oracle_lines(log)


def test_non_finite_numbers_are_spelled_by_json(tmp_path):
    log = DecisionLog()
    for backlogs in ((math.nan, 0.5), (math.inf, 0.5), (0.5, -math.inf)):
        log.append(_record(backlogs))
    log.append(_record((0.5, 0.5), time=math.nan))
    log.write_jsonl(str(tmp_path / "d.jsonl"))
    text = (tmp_path / "d.jsonl").read_text()
    assert text == _oracle_lines(log)
    assert "NaN" in text and "-Infinity" in text


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


@settings(max_examples=300, deadline=None)
@given(tracers(), counter_families())
@example(Tracer(), [
    CounterTrack("power a", ((0.0, 1.0), (-0.0, 1.0), (0.5, -0.0)), "W"),
    CounterTrack("power b", ((-0.0, 0.0), (0.0, 2.0), (0.5, 0.0)), "W"),
])
def test_trace_is_json_dumps_of_the_document(tmp_path_factory, tracer, tracks):
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    write_chrome_trace(tracer, str(path), counters=tracks)
    assert path.read_text() == json.dumps(to_chrome_trace(tracer, counters=tracks))


def _writer_peak(path, tracks) -> int:
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        write_chrome_trace(Tracer(), str(path), counters=tracks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


def test_timestamp_memo_holds_one_family_at_a_time(tmp_path):
    # Two families on disjoint time axes: the writer's memory is the
    # larger axis's memo, not both.
    n = 32 * WRITE_CHUNK_EVENTS
    power = [CounterTrack("power gpu0",
                          tuple((i * 1e-3 + 1e-7, 1.0) for i in range(n)), "W")]
    backlog = [CounterTrack("backlog w0",
                            tuple((i * 1e-3 + 3e-7, 0.0) for i in range(n)), "s")]
    one = max(_writer_peak(tmp_path / "p.json", power),
              _writer_peak(tmp_path / "b.json", backlog))
    both = _writer_peak(tmp_path / "pb.json", power + backlog)
    assert both < 1.5 * one
