"""The decision log keeps decisions as flat columns, not objects.

A logged scan appends scalars to lists and each decision's backlog
snapshot and class terms to flat lists of floats, and points at the
scheduler's per-class table; nothing it keeps per decision is a
container the cyclic GC walks.  Readers (``records``, iteration, the
writers, the replay) build what they need from the columns.
"""

import gc
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.catalog import build_platform
from repro.linalg import assign_priorities, potrf_graph
from repro.obs.decisions import CandidateClass, DecisionLog, DecisionRecord
from repro.obs.exporters import backlog_counter_tracks
from repro.runtime import RuntimeSystem
from repro.sim import Simulator
from repro.tools.chrometrace import CounterTrack

#: ``type.__flags__`` bit of the types whose instances the GC can track.
_HAVE_GC = 1 << 14


def _logged_potrf(nt: int) -> DecisionLog:
    node = build_platform("24-Intel-2-V100", Simulator())
    log = DecisionLog()
    runtime = RuntimeSystem(node, scheduler="dmdas", seed=0, decision_log=log)
    graph, _ = potrf_graph(nt * 960, 960, "double")
    assign_priorities(graph)
    runtime.run(graph)
    return log


def _gc_objects_held(log: DecisionLog) -> int:
    """Objects of GC-tracked types reachable from the log's attributes.

    Counted by type, not by ``gc.is_tracked``: a collection untracks a
    tuple of atoms, so whether a tuple is tracked at the moment depends
    on when the GC last ran.
    """
    count = 0
    seen: set[int] = set()
    stack = list(vars(log).values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if type(obj).__flags__ & _HAVE_GC:
            count += 1
            stack.extend(gc.get_referents(obj))
    return count


def test_log_holds_the_same_tracked_objects_at_any_length():
    small, large = _logged_potrf(4), _logged_potrf(8)
    assert len(large) > 4 * len(small)
    assert _gc_objects_held(small) == _gc_objects_held(large)


def test_records_rebuild_what_the_scan_priced():
    log = _logged_potrf(4)
    records = log.records
    assert len(records) == len(log)
    for rec in records:
        assert rec.replay_choice() == (rec.chosen, rec.chosen_cost)
        for cand in rec.candidates:
            assert len(cand.backlogs) == len(cand.workers) == len(cand.costs)
            assert cand.costs == tuple(cand.cost_of(m) for m in range(len(cand.costs)))
    assert log.verify_replay() == []


def test_scan_and_appended_records_write_the_same_lines(tmp_path):
    # The same decisions, once as scan columns and once appended whole
    # (verbatim costs, the log's own table).  The scan log writes compact
    # lines and the appended one full lines; read back, both write the
    # full lines, and both give the same backlog tracks and replay.
    scanned = _logged_potrf(4)
    appended = DecisionLog()
    for rec in scanned:
        appended.append(rec)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    scanned.write_jsonl(str(a))
    appended.write_jsonl(str(b))
    full = "".join(json.dumps(rec.to_record()) + "\n" for rec in scanned)
    assert b.read_text() == full
    assert len(a.read_text()) < len(full) / 2
    a2 = tmp_path / "a2.jsonl"
    DecisionLog.read_jsonl(str(a)).write_jsonl(str(a2))
    assert a2.read_text() == full
    assert [(t.name, t.series) for t in backlog_counter_tracks(scanned)] == [
        (t.name, t.series) for t in backlog_counter_tracks(appended)
    ]
    assert appended.verify_replay() == []
    assert appended.records == scanned.records


#: A table whose class A interleaves with class B, so that scan order
#: and worker-index order disagree on ties.
_TABLE = {
    0: ("A", ("w0", "w3"), (0, 3)),
    1: ("B", ("w1", "w2"), (1, 2)),
    4: ("G", ("w4",), (4,)),
}

#: Backlog lists: a winner that is not its class's first member, a tie
#: across classes that the lower worker index breaks, a residue lost in
#: the add (three members tie), a NaN where ``min`` would stop at it.
_BACKLOGS = [
    [3.0, 1.0, 2.0, 0.5, 9.0],
    [2.0, 1.0, 5.0, 1.0, 9.0],
    [1e-19, 0.0, 5.0, 0.0, 9.0],
    [math.nan, 1.0, 2.0, 0.5, 9.0],
    [0.25, 7.0, 7.0, 0.125, 0.0],
]


def _scan_log(chosen) -> DecisionLog:
    log = DecisionLog()
    for d, backlog in enumerate(_BACKLOGS):
        task = SimpleNamespace(tid=d, label=f"t{d}", op=SimpleNamespace(kind="gemm"),
                               priority=0)
        log.append_scan(task, 0.0, chosen[d], 0.0, _TABLE, backlog,
                        [0, 1, 4], [1.0, 0.5, 1.0, 0.5, 0.0, 0.5], [2, 4, 6])
    return log


def test_replay_of_scan_columns_agrees_with_the_records():
    expected = [rec.replay_choice()[0] for rec in _scan_log(["?"] * len(_BACKLOGS))]
    assert expected[:3] == ["w3", "w1", "w0"]
    assert _scan_log(expected).verify_replay() == []
    wrong = ["w4" if e != "w4" else "w0" for e in expected]
    assert [r.tid for r in _scan_log(wrong).verify_replay()] == list(range(len(_BACKLOGS)))


def test_appended_records_keep_their_types():
    log = DecisionLog()
    for index in (0, True, 0.0):
        log.append(DecisionRecord(
            tid=0, label="t", kind="gemm", time=0.0, chosen="w",
            chosen_cost=1.0, candidates=(CandidateClass(
                "k", ("w",), (index,), (0.0,), (1.0,), ()),),
        ))
    indices = [rec.candidates[0].indices[0] for rec in log]
    assert [type(i) for i in indices] == [int, bool, float]


def test_a_worker_named_twice_keeps_its_samples_in_order():
    log = DecisionLog()
    for t, (first, second) in enumerate([(1.0, 2.0), (3.0, 4.0)]):
        log.append(DecisionRecord(
            tid=t, label="t", kind="gemm", time=float(t), chosen="w",
            chosen_cost=1.0, candidates=(
                CandidateClass("a", ("w",), (0,), (first,), (0.5,)),
                CandidateClass("b", ("w",), (0,), (second,), (0.5,)),
            ),
        ))
    (track,) = backlog_counter_tracks(log)
    assert track.series == ((0.0, 1.0), (0.0, 2.0), (1.0, 3.0), (1.0, 4.0))


def test_a_track_built_from_columns_equals_one_built_from_pairs():
    times, values = [0.0, 0.5], [1.0, 2.0]
    track = CounterTrack("backlog w", unit="s", times=times, values=values)
    times.append(1.0)
    values.append(3.0)
    assert track == CounterTrack("backlog w", ((0.0, 1.0), (0.5, 2.0)), "s")
    assert (track.times, track.values) == ((0.0, 0.5), (1.0, 2.0))
    for columns in ({"times": times}, {"values": values},
                    {"times": times, "values": values[:1]}):
        with pytest.raises(ValueError):
            CounterTrack("backlog w", unit="s", **columns)


def _scan_decisions(backlogs: list, table: dict = _TABLE) -> DecisionLog:
    log = DecisionLog()
    for d, backlog in enumerate(backlogs):
        task = SimpleNamespace(tid=d, label="t", op=SimpleNamespace(kind="gemm"),
                               priority=0)
        log.append_scan(task, 0.5, "w0", 1.0, table, backlog,
                        [0, 1, 4], [1.0, 0.5, 1.0, 0.5, 0.0, 0.5], [2, 4, 6])
    return log


def _lines(log: DecisionLog, tmp_path) -> list[str]:
    path = tmp_path / "d.jsonl"
    log.write_jsonl(str(path))
    return path.read_text().splitlines(keepends=True)


def test_a_negative_zero_far_into_the_log_is_spelled(tmp_path):
    # 4,999 decisions that change nothing, then a -0.0 where 0.0 was: the
    # last line's backlogs hold it, and nothing else.
    log = _scan_decisions([[0.0, 1.0, 2.0, 0.5, 9.0]] * 4999
                          + [[-0.0, 1.0, 2.0, 0.5, 9.0]])
    lines = _lines(log, tmp_path)
    assert len(lines) == 3 + 5000
    assert [json.loads(line)["backlogs"] for line in lines[4:-1]] == [{}] * 4998
    assert lines[-1].endswith('"backlogs": {"w0": -0.0}}\n')
    assert DecisionLog.read_jsonl(str(tmp_path / "d.jsonl")).records == log.records


#: Positive finite floats.  1.7e308 overflows a fold.
_PLAIN = [0.0, 0.5, 1.5, 5e-324, 0.1 + 0.2, 1e300, 1.7e308, 2.0]


@st.composite
def plain_logs(draw) -> DecisionLog:
    """Scan decisions over :data:`_TABLE` and the same table with ``w0``
    excluded, whose classes' backlogs and terms repeat or change in value
    and in number between decisions, interleaved with appended records
    that carry verbatim costs."""
    value = st.sampled_from(_PLAIN)
    excluded = {0: ("A", ("w3",), (3,)), **{k: _TABLE[k] for k in (1, 4)}}
    log = DecisionLog()
    classes = [("k0", ("a", "b"), (0, 1)), ("k1", ("c",), (2,))]
    for tid in range(draw(st.integers(0, 12))):
        time = draw(value)
        if draw(st.booleans()):
            task = SimpleNamespace(tid=tid, label="t", op=SimpleNamespace(kind="gemm"),
                                   priority=1)
            backlog = draw(st.sampled_from([[0.5] * 5, [1.5, 0.0, 0.5, 2.0, 0.5],
                                            draw(st.lists(value, min_size=5, max_size=5))]))
            # A policy's terms per class may change in number.
            ends = draw(st.sampled_from([[1, 2, 3], [2, 4, 6], [0, 1, 3]]))
            log.append_scan(task, time, "w1", draw(value),
                            draw(st.sampled_from([_TABLE, excluded])), backlog,
                            [0, 1, 4], [draw(value)] * ends[-1], ends)
        else:
            log.append(DecisionRecord(
                tid=tid, label="t", kind="potrf", time=time, chosen="a",
                chosen_cost=draw(value), candidates=tuple(
                    CandidateClass(key, workers, indices, (0.5,) * len(workers),
                                   (1.5,), tuple(draw(st.lists(
                                       value, min_size=len(workers),
                                       max_size=len(workers)))))
                    for key, workers, indices in classes
                ),
            ))
    return log


@settings(max_examples=150, deadline=None)
@given(plain_logs())
def test_plain_logs_write_the_lines_json_dumps_writes(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("plain") / "d.jsonl"
    log.write_jsonl(str(path))
    lines = path.read_text().splitlines(keepends=True)
    assert lines == [json.dumps(json.loads(line)) + "\n" for line in lines]
    back = DecisionLog.read_jsonl(str(path))
    assert back.records == log.records
    assert [json.dumps(rec.to_record()) for rec in back] == [
        json.dumps(rec.to_record()) for rec in log]


def test_a_log_that_is_not_plain_is_spelled_decision_by_decision(tmp_path):
    # A -0.0, an int and a NaN among scan decisions that repeat their
    # classes: each decision's line holds its own changes, spelled by
    # json.dumps; a table that names a worker twice is written whole.
    log = _scan_decisions([[0.5, 1.0, 2.0, 0.5, 9.0], [-0.0, 1.0, 2.0, 0.5, 9.0],
                           [0.0, 1.0, 2.0, 0.5, 9.0], [0, 1.0, 2.0, 0.5, 9.0],
                           [math.nan, 1.0, 2.0, 0.5, 9.0], [0.0, 1.0, 2.0, 0.5, 9.0]])
    lines = _lines(log, tmp_path)
    assert lines == [json.dumps(json.loads(line)) + "\n" for line in lines]
    assert [line[line.index('"backlogs"'):] for line in lines[4:]] == [
        '"backlogs": {"w0": -0.0}}\n', '"backlogs": {"w0": 0.0}}\n',
        '"backlogs": {"w0": 0}}\n', '"backlogs": {"w0": NaN}}\n',
        '"backlogs": {"w0": 0.0}}\n',
    ]
    back = DecisionLog.read_jsonl(str(tmp_path / "d.jsonl"))
    assert [json.dumps(rec.to_record()) for rec in back] == [
        json.dumps(rec.to_record()) for rec in log]

    twice = {**_TABLE, 4: ("G", ("w1",), (4,))}
    log = _scan_decisions([[0.5, 1.0, 2.0, 0.5, 9.0]] * 2, twice)
    assert _lines(log, tmp_path) == [
        json.dumps(rec.to_record()) + "\n" for rec in log]
