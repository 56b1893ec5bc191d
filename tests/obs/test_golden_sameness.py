"""The re-recorded goldens say what the full-sample artefacts said.

``trace.json`` holds each counter track's change points, and
``decisions.jsonl`` writes class-scan decisions compact, so the
``trace.json``/``decisions.jsonl`` digests of the trace, chaos and govern
goldens changed on purpose.  Each golden keeps the digests of the
full-sample files under ``sha256_full``.  For each golden scenario:

- the run rendered in the reference spelling hashes to ``sha256_full``:
  ``json.dumps(to_chrome_trace(...))`` over full-sample counter tracks,
  built here from ``sampler.samples`` and ``log.records``, and
  ``json.dumps(rec.to_record())`` per record, then the annotations;
- the new files, read back, say the same: each counter track, read as a
  step function, equals its full-sample track at every full-sample
  timestamp, the timeline events are the same, and ``read_jsonl`` gives
  back ``log.records``, their replay and the annotations.
"""

import hashlib
import json
from bisect import bisect_right
from pathlib import Path

import pytest

from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.govern import run_govern
from repro.obs.capture import run_traced
from repro.obs.decisions import DecisionLog
from repro.tools.chrometrace import CounterTrack, to_chrome_trace

DATA = Path(__file__).resolve().parents[1] / "data"


def _trace(sc, outdir):
    spec = operation_spec(sc["platform"], sc["op"], sc["precision"], sc["scale"])
    states = cap_states(sc["platform"], sc["op"], sc["precision"], sc["scale"])
    return run_traced(
        RunSpec(sc["platform"], spec, CapConfig(sc["config"]), states,
                seed=sc["seed"], scale=sc["scale"],
                cpu_caps={int(k): v for k, v in sc["cpu_caps"].items()}),
        outdir=outdir,
    )


def _chaos(sc, outdir):
    spec = operation_spec(sc["platform"], sc["op"], sc["precision"], sc["scale"])
    states = cap_states(sc["platform"], sc["op"], sc["precision"], sc["scale"])
    return run_chaos(
        RunSpec(sc["platform"], spec, CapConfig(sc["config"]), states,
                seed=sc["seed"], scale=sc["scale"],
                plan=preset_plan(sc["preset"], seed=sc["plan_seed"])),
        outdir=outdir, stream=sc["stream"],
    ).run


def _govern(sc, outdir):
    return run_govern(
        sc["platform"], sc["op"], sc["precision"],
        preset_plan(sc["preset"], seed=sc["plan_seed"]),
        mix=sc["mix"], outdir=outdir, seed=sc["seed"], scale=sc["scale"],
        stream=sc["stream"],
    ).run


def full_tracks(run) -> list[CounterTrack]:
    """Every power sample and every logged backlog as a counter track, in
    the writer's order: devices, then workers by name."""
    samples = run.sampler.samples
    times = [float(s.time_s) for s in samples]
    tracks = [
        CounterTrack(f"power {d}", unit="W", times=times,
                     values=[float(s.device_w[d]) for s in samples])
        for d in run.sampler.devices()
    ]
    columns: dict[str, tuple[list, list]] = {}
    for rec in run.decisions.records:
        for cand in rec.candidates:
            for worker, backlog in zip(cand.workers, cand.backlogs):
                t, v = columns.setdefault(worker, ([], []))
                t.append(rec.time)
                v.append(backlog)
    tracks += [CounterTrack(f"backlog {w}", unit="s", times=columns[w][0],
                            values=columns[w][1]) for w in sorted(columns)]
    return tracks


def full_lines(log: DecisionLog) -> str:
    return "".join(
        [json.dumps(rec.to_record()) + "\n" for rec in log.records]
        + [json.dumps({"type": "annotation", **ann}) + "\n" for ann in log.annotations]
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _bits(value) -> tuple:
    return type(value), repr(value)


def _counters(doc: dict) -> dict[str, tuple[list, list]]:
    out: dict[str, tuple[list, list]] = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "C":
            ts, vs = out.setdefault(e["name"], ([], []))
            ts.append(e["ts"])
            vs.append(next(iter(e["args"].values())))
    return out


def _step(ts: list, vs: list, t: float):
    """The value a step-function read of a track gives at ``t``: its last
    event at or before ``t``."""
    return vs[bisect_right(ts, t) - 1]


@pytest.mark.parametrize("golden, run", [
    ("golden_trace_tiny_potrf.json", _trace),
    ("golden_chaos_tiny_kill_throttle_stream.json", _chaos),
    ("golden_govern_small_shift_kill_throttle.json", _govern),
], ids=["trace", "chaos", "govern"])
def test_change_point_artefacts_equal_the_full_samples(golden, run, tmp_path):
    golden = json.loads((DATA / golden).read_text())
    r = run(golden["scenario"], str(tmp_path))
    full = to_chrome_trace(r.tracer, counters=full_tracks(r))
    lines = full_lines(r.decisions)
    assert {
        "trace.json": _sha(json.dumps(full)),
        "decisions.jsonl": _sha(lines),
    } == golden["sha256_full"]

    new = json.loads((tmp_path / "trace.json").read_text())
    assert [e for e in new["traceEvents"] if e["ph"] != "C"] == [
        e for e in full["traceEvents"] if e["ph"] != "C"]
    old_tracks, new_tracks = _counters(full), _counters(new)
    assert list(new_tracks) == list(old_tracks)
    for name, (old_ts, old_vs) in old_tracks.items():
        new_ts, new_vs = new_tracks[name]
        assert (new_ts[0], new_ts[-1]) == (old_ts[0], old_ts[-1])
        assert len(new_ts) <= len(old_ts)
        assert [_bits(_step(new_ts, new_vs, t)) for t in old_ts] == [
            _bits(_step(old_ts, old_vs, t)) for t in old_ts]

    back = DecisionLog.read_jsonl(str(tmp_path / "decisions.jsonl"))
    assert back.records == r.decisions.records
    assert full_lines(back) == lines
    assert back.verify_replay() == r.decisions.verify_replay() == []
    assert [rec.replay_choice() for rec in back] == [
        rec.replay_choice() for rec in r.decisions]
