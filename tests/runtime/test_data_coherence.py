"""Unit tests for data handles, MSI coherence and LRU memory."""

from types import SimpleNamespace

import pytest

from repro.hardware.catalog import build_platform
from repro.runtime.data import (
    AccessMode,
    CoherenceError,
    DataHandle,
    DataManager,
    MemoryManager,
)
from repro.sim import Simulator


@pytest.fixture
def node():
    return build_platform("32-AMD-4-A100", Simulator())


@pytest.fixture
def dm(node):
    return DataManager(node)


MB = 1_000_000


def test_access_mode_semantics():
    assert AccessMode.R.reads and not AccessMode.R.writes
    assert AccessMode.W.writes and not AccessMode.W.reads
    assert AccessMode.RW.reads and AccessMode.RW.writes


def test_handle_starts_valid_at_home():
    h = DataHandle(100)
    assert h.valid_nodes == {0} and h.owner is None
    h.check_invariants()


def test_handle_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        DataHandle(0)


def test_handle_rejects_negative_home_node():
    with pytest.raises(ValueError, match="home_node"):
        DataHandle(100, home_node=-1)


def test_invariant_dirty_must_be_sole_replica():
    h = DataHandle(100)
    h.valid = 0b101  # nodes 0 and 2
    h.dirty = True
    with pytest.raises(CoherenceError):
        h.check_invariants()


def test_acquire_and_release_trip_on_corrupted_handle(dm):
    """The per-access tripwire: a handle marked dirty while two nodes hold
    it must make both acquire and release raise."""
    for stage in (
        lambda h: dm.acquire([(h, AccessMode.R)], target=1, now=0.0),
        lambda h: dm.release([(h, AccessMode.R)], target=1),
    ):
        h = DataHandle(10 * MB)
        h.valid = 0b11  # host and GPU node 1
        h.dirty = True
        with pytest.raises(CoherenceError, match="dirty"):
            stage(h)


def test_read_fetch_populates_target(dm):
    h = DataHandle(10 * MB)
    ready = dm.acquire([(h, AccessMode.R)], target=1, now=0.0)
    assert 1 in h.valid_nodes and 0 in h.valid_nodes
    assert ready > 0.0  # PCIe transfer took time


def test_read_on_host_resident_is_free(dm):
    h = DataHandle(10 * MB)
    ready = dm.acquire([(h, AccessMode.R)], target=0, now=5.0)
    assert ready == 5.0
    assert dm.n_transfers == 0


def test_write_invalidates_other_replicas(dm):
    h = DataHandle(10 * MB)
    dm.acquire([(h, AccessMode.R)], target=1, now=0.0)
    dm.acquire([(h, AccessMode.R)], target=2, now=0.0)
    dm.acquire([(h, AccessMode.RW)], target=1, now=0.0)
    dm.release([(h, AccessMode.RW)], target=1)
    assert h.valid_nodes == {1} and h.owner == 1
    assert not dm.managers[2].resident(h)


def test_dirty_read_relays_through_host(dm):
    h = DataHandle(10 * MB)
    dm.acquire([(h, AccessMode.RW)], target=1, now=0.0)
    dm.release([(h, AccessMode.RW)], target=1)
    before = dm.n_transfers
    dm.acquire([(h, AccessMode.R)], target=2, now=10.0)
    # d2h from GPU 0's node plus h2d to GPU 1's node
    assert dm.n_transfers == before + 2
    assert {0, 1, 2} <= h.valid_nodes
    assert h.owner is None


def test_host_read_of_dirty_tile_fetches_back(dm):
    h = DataHandle(10 * MB)
    dm.acquire([(h, AccessMode.RW)], target=3, now=0.0)
    dm.release([(h, AccessMode.RW)], target=3)
    ready = dm.acquire([(h, AccessMode.R)], target=0, now=20.0)
    assert ready > 20.0
    assert 0 in h.valid_nodes


def test_write_only_does_not_fetch(dm):
    h = DataHandle(10 * MB)
    ready = dm.acquire([(h, AccessMode.W)], target=1, now=0.0)
    assert ready == 0.0
    assert dm.n_transfers == 0
    dm.release([(h, AccessMode.W)], target=1)
    assert h.owner == 1


def test_transfer_estimate_counts_missing_reads(dm):
    h1 = DataHandle(10 * MB)
    h2 = DataHandle(10 * MB)
    dm.acquire([(h1, AccessMode.R)], target=1, now=0.0)
    est = dm.transfer_estimate([(h1, AccessMode.R), (h2, AccessMode.R)], target=1)
    single = dm.node.links[0].spec.transfer_time(10 * MB)
    # h1 resident -> only h2 needs a move, but the link carries h1's pending
    # transfer, so the estimate includes that backlog.
    assert est >= single


def test_transfer_estimate_zero_when_resident(dm):
    h = DataHandle(10 * MB)
    assert dm.transfer_estimate([(h, AccessMode.R)], target=0) == 0.0


def test_flush_to_host_writes_back_dirty(dm):
    h = DataHandle(10 * MB)
    dm.acquire([(h, AccessMode.RW)], target=2, now=0.0)
    dm.release([(h, AccessMode.RW)], target=2)
    dm.flush_to_host([h])
    assert h.owner is None and 0 in h.valid_nodes


def _queued(*accesses):
    """A queued task as prefetch sees it: its accesses and its label."""
    return SimpleNamespace(accesses=list(accesses), label="next")


def test_prefetch_then_acquire_waits_for_arrival(dm):
    h = DataHandle(100 * MB)
    dm.prefetch([_queued((h, AccessMode.R))], target=1)
    ready = dm.acquire([(h, AccessMode.R)], target=1, now=0.0)
    assert ready > 0.0  # still in flight
    # Well after arrival the data is just there.
    ready2 = dm.acquire([(h, AccessMode.R)], target=1, now=ready + 1.0)
    assert ready2 == ready + 1.0


def test_write_only_replica_does_not_inherit_evicted_prefetch_arrival(dm):
    """A prefetched replica is evicted before it arrives; a write-only task
    then makes GPU node 1 the sole replica.  Reading it there is free: the
    dead prefetch's arrival time must not apply."""
    dm.managers[1] = MemoryManager(1, capacity_bytes=25 * MB)
    h, other = DataHandle(20 * MB, "h"), DataHandle(20 * MB, "other")
    dm.prefetch([_queued((h, AccessMode.R))], target=1)
    dm.acquire([(other, AccessMode.R)], target=1, now=0.0)  # evicts h
    dm.release([(other, AccessMode.R)], target=1)
    assert h.valid_nodes == {0}
    dm.acquire([(h, AccessMode.W)], target=1, now=0.0)
    dm.release([(h, AccessMode.W)], target=1)
    assert h.valid_nodes == {1} and h.owner == 1
    assert dm.acquire([(h, AccessMode.R)], target=1, now=0.0) == 0.0


# ------------------------------------------------------------ MemoryManager


def test_memory_manager_lru_eviction_order():
    mm = MemoryManager(1, capacity_bytes=100)
    a, b, c = DataHandle(40, "a"), DataHandle(40, "b"), DataHandle(40, "c")
    for h in (a, b):
        assert mm.add(h) == []
    mm.touch(a)  # b becomes LRU
    evicted = mm.add(c)
    assert evicted == [b]
    assert mm.resident(a) and mm.resident(c) and not mm.resident(b)


def test_memory_manager_pinned_not_evicted():
    mm = MemoryManager(1, capacity_bytes=100)
    a, b, c = DataHandle(40), DataHandle(40), DataHandle(40)
    mm.add(a)
    mm.pin(a)
    mm.add(b)
    evicted = mm.add(c)
    assert evicted == [b]
    mm.unpin(a)
    d = DataHandle(100)
    assert a in mm.add(d)


def test_memory_manager_oversized_handle():
    mm = MemoryManager(1, capacity_bytes=100)
    with pytest.raises(CoherenceError):
        mm.add(DataHandle(200))


def test_memory_manager_all_pinned_raises():
    mm = MemoryManager(1, capacity_bytes=100)
    a = DataHandle(80)
    mm.add(a)
    mm.pin(a)
    with pytest.raises(CoherenceError):
        mm.add(DataHandle(50))


def test_memory_manager_nested_pins():
    mm = MemoryManager(1, capacity_bytes=100)
    a = DataHandle(80)
    mm.add(a)
    mm.pin(a)
    mm.pin(a)
    mm.unpin(a)
    with pytest.raises(CoherenceError):  # still pinned once
        mm.add(DataHandle(50))
    mm.unpin(a)
    mm.add(DataHandle(50))  # now evictable


def test_eviction_of_dirty_tile_writes_back(node):
    """Fill a tiny GPU memory with dirty tiles; eviction must write back."""
    dm = DataManager(node)
    dm.managers[1] = MemoryManager(1, capacity_bytes=25 * MB)
    h1, h2, h3 = (DataHandle(10 * MB, f"t{i}") for i in range(3))
    for h in (h1, h2):
        dm.acquire([(h, AccessMode.RW)], target=1, now=0.0)
        dm.release([(h, AccessMode.RW)], target=1)
    before = dm.n_transfers
    dm.acquire([(h3, AccessMode.W)], target=1, now=0.0)
    assert dm.n_transfers == before + 1  # h1 written back
    assert h1.owner is None and h1.valid_nodes == {0}
    assert dm.managers[1].n_evictions == 1


def test_evicting_abandoned_write_residue_keeps_dirty_replica_elsewhere(node):
    """An aborted write-only task leaves the handle resident, but not valid,
    on its node.  Evicting that residue drops it without a write-back: the
    dirty replica on the other GPU stays the owner."""
    dm = DataManager(node)
    dm.managers[1] = MemoryManager(1, capacity_bytes=25 * MB)
    h, other = DataHandle(20 * MB, "h"), DataHandle(20 * MB, "other")
    dm.acquire([(h, AccessMode.RW)], target=2, now=0.0)
    dm.release([(h, AccessMode.RW)], target=2)
    dm.acquire([(h, AccessMode.W)], target=1, now=0.0)
    dm.abandon([(h, AccessMode.W)], target=1)
    before = dm.n_transfers
    dm.acquire([(other, AccessMode.R)], target=1, now=0.0)  # evicts h
    assert not dm.managers[1].resident(h)
    assert h.valid_nodes == {2} and h.owner == 2
    assert dm.n_transfers == before + 1  # other's h2d only
