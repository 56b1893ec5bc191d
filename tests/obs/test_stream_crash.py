"""A streamed run that raises mid-run keeps every event it published.

The telemetry bus batches events; a run that dies must still drain the
batch into ``events.jsonl`` before the writer closes, or the stream loses
its advertised crash tolerance exactly when it matters.
"""

from __future__ import annotations

import pytest

from repro.core.capconfig import CapConfig
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.govern import run_govern
from repro.obs.exporters import read_events_jsonl_tolerant
from repro.obs.stream import TelemetryBus
from repro.runtime.engine import RuntimeSystem

PLATFORM = "24-Intel-2-V100"
CRASH_AT = 70


class Crash(RuntimeError):
    pass


@pytest.fixture
def crashing(monkeypatch):
    """Make the 70th task completion of a streamed run raise; record every
    bus built.  Runs without a bus (the fault-free baselines) finish."""
    buses = []
    init = TelemetryBus.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        buses.append(self)

    finish = RuntimeSystem._finish
    calls = [0]

    def crash(self, *args, **kwargs):
        if self.bus is not None:
            calls[0] += 1
        if calls[0] == CRASH_AT:
            raise Crash(f"task completion {CRASH_AT}")
        return finish(self, *args, **kwargs)

    monkeypatch.setattr(TelemetryBus, "__init__", record)
    monkeypatch.setattr(RuntimeSystem, "_finish", crash)
    return buses


def _assert_stream_complete(buses, outdir):
    (bus,) = buses
    events, n_torn = read_events_jsonl_tolerant(str(outdir / "events.jsonl"))
    assert n_torn == 0
    assert bus.n_published > 0
    assert len(events) == bus.n_published


def test_streamed_chaos_crash_keeps_published_events(crashing, tmp_path):
    spec = operation_spec(PLATFORM, "potrf", "double", "tiny")
    states = cap_states(PLATFORM, "potrf", "double", "tiny")
    with pytest.raises(Crash):
        run_chaos(
            PLATFORM, spec, CapConfig("HH"), states,
            preset_plan("kill-throttle"), outdir=str(tmp_path), seed=0,
            scale="tiny", stream=True,
        )
    _assert_stream_complete(crashing, tmp_path)


def test_streamed_govern_crash_keeps_published_events(crashing, tmp_path):
    with pytest.raises(Crash):
        run_govern(
            PLATFORM, "gemm", "double", preset_plan("kill-throttle"),
            mix="shift", outdir=str(tmp_path), seed=3, stream=True,
        )
    _assert_stream_complete(crashing, tmp_path)
