"""Cancelled-event compaction of the simulator's pending set.

Workloads that cancel far more events than they fire (timeout guards,
speculative transfers) must not leave the queue dominated by dead entries:
once cancellations outnumber live events, the pending set is filtered in
place.  Event order and the fired set must be unaffected — including for
equal-timestamp bursts, whose relative (seq) order is part of the engine's
determinism contract.
"""

from __future__ import annotations

from repro.sim import Simulator


def test_compaction_triggers_and_preserves_order():
    sim = Simulator()
    fired: list[int] = []
    handles = [sim.schedule(1.0 + i, fired.append, i) for i in range(500)]
    for h in handles[:400]:
        h.cancel()
    assert sim.n_compactions >= 1
    # Dead entries are actually gone from the pending set, not just flagged.
    assert len(sim._tail) + len(sim._spill) <= 500 - 400 + Simulator.COMPACT_MIN_SIZE
    sim.run()
    assert fired == list(range(400, 500))


def test_compaction_preserves_equal_timestamp_order():
    # A burst of events at the same timestamp must keep schedule order
    # across a compaction: (time, seq) keys are untouched by the filter.
    sim = Simulator()
    fired: list[int] = []
    handles = [sim.schedule(1.0, fired.append, i) for i in range(300)]
    # Cancel a strided subset so survivors interleave with dead entries.
    cancelled = {i for i in range(300) if i % 3 != 0}
    for i in sorted(cancelled):
        handles[i].cancel()
    assert sim.n_compactions >= 1
    sim.run()
    survivors = [i for i in range(300) if i not in cancelled]
    assert fired == survivors


def test_compaction_spans_out_of_order_entries():
    # Entries that were admitted out of order (spilled past the monotonic
    # frontier) must still merge correctly with in-order entries after a
    # compaction removes their neighbours.
    sim = Simulator()
    fired: list[float] = []
    sim.schedule(10.0, fired.append, 10.0)  # raises the frontier
    late = [sim.schedule(20.0 + i, fired.append, 20.0 + i) for i in range(100)]
    early = [sim.schedule(1.0 + i, fired.append, 1.0 + i) for i in range(100)]
    for h in late[1:] + early[1:]:
        h.cancel()
    assert sim.n_compactions >= 1
    sim.run()
    assert fired == [1.0, 10.0, 20.0]


def test_bounded_run_after_compaction_removes_top():
    sim = Simulator()
    fired: list[float] = []
    doomed = [sim.schedule(1.0 + i, lambda: None) for i in range(200)]
    sim.schedule(500.0, fired.append, 500.0)
    late = sim.schedule(600.0, fired.append, 600.0)
    for h in doomed:  # includes the earliest entry — the queue front
        h.cancel()
    assert sim.n_compactions >= 1
    sim.run(max_events=1)
    assert fired == [500.0] and sim.now == 500.0
    late.cancel()
    sim.run()
    assert fired == [500.0] and sim.n_processed == 1


def test_cancel_is_idempotent_for_the_counter():
    sim = Simulator()
    _keep = sim.schedule(2.0, lambda: None)  # holds a live event in the queue
    h = sim.schedule(1.0, lambda: None)
    for _ in range(5):
        h.cancel()
    assert sim._n_cancelled == 1
    sim.run()
    assert sim._n_cancelled == 0
    assert sim.n_processed == 1


def test_small_pending_sets_are_left_alone():
    sim = Simulator()
    handles = [sim.schedule(1.0 + i, lambda: None) for i in range(10)]
    for h in handles:
        h.cancel()
    assert sim.n_compactions == 0
    sim.run()
    assert sim.n_processed == 0


def test_lazy_discard_keeps_counter_consistent():
    sim = Simulator()
    fired = []
    h1 = sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    h1.cancel()
    sim.run(until=1.5)  # discards the cancelled front lazily
    assert fired == [] and sim._n_cancelled == 0
    sim.run()
    assert fired == [2]
