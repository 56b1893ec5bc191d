"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator, SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    out = []
    sim.schedule(3.0, out.append, "c")
    sim.schedule(1.0, out.append, "a")
    sim.schedule(2.0, out.append, "b")
    sim.run()
    assert out == ["a", "b", "c"]
    assert sim.now == 3.0


def test_equal_timestamps_fire_in_submission_order():
    sim = Simulator()
    out = []
    for tag in "abcde":
        sim.schedule(1.0, out.append, tag)
    sim.run()
    assert out == list("abcde")


def test_schedule_at_absolute_time():
    sim = Simulator()
    out = []
    sim.schedule_at(5.0, out.append, "x")
    sim.run()
    assert out == ["x"] and sim.now == 5.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    out = []
    h = sim.schedule(1.0, out.append, "nope")
    sim.schedule(2.0, out.append, "yes")
    h.cancel()
    sim.run()
    assert out == ["yes"]


def test_cancel_is_idempotent():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    h.cancel()
    h.cancel()
    sim.run()
    assert sim.n_processed == 0


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    out = []

    def chain(n):
        out.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert out == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(10.0, out.append, "b")
    sim.run(until=5.0)
    assert out == ["a"]
    assert sim.now == 5.0
    sim.run()
    assert out == ["a", "b"]


def test_run_until_advances_clock_when_heap_drains_early():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_run_max_events():
    sim = Simulator()
    out = []
    for i in range(5):
        sim.schedule(float(i + 1), out.append, i)
    sim.run(max_events=2)
    assert out == [0, 1]


def test_step_returns_false_when_idle():
    sim = Simulator()
    assert sim.step() is False
    assert sim.idle()


def test_peek_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek() == 2.0


def test_run_not_reentrant():
    sim = Simulator()
    seen = []

    def recurse():
        try:
            sim.run()
        except SimulationError as exc:
            seen.append(str(exc))

    sim.schedule(1.0, recurse)
    sim.run()
    assert seen and "re-entrant" in seen[0]


def test_n_processed_counts_fired_events():
    sim = Simulator()
    for i in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.n_processed == 4


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    out = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, out.append, sim.now))
    sim.run()
    assert out == [1.0]


_ENQUEUE = ("schedule", "schedule_at", "post", "post_at")


@pytest.mark.parametrize("method", _ENQUEUE)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_times_rejected(method, value):
    sim = Simulator()
    with pytest.raises(SimulationError):
        getattr(sim, method)(value, lambda: None)
    # Nothing was enqueued: the clock neither jumps nor misorders.
    sim.run()
    assert sim.now == 0.0


def test_nan_event_cannot_misorder_the_queue():
    """A NaN time used to compare false both ways and fire first."""
    sim = Simulator()
    out = []
    sim.post(1.0, out.append, "a")
    with pytest.raises(SimulationError, match="finite"):
        sim.post(float("nan"), out.append, "nan")
    sim.post(0.5, out.append, "b")
    sim.run()
    assert out == ["b", "a"]
