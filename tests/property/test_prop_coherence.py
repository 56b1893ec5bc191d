"""Property-based tests: MSI coherence and device-memory accounting."""

from types import SimpleNamespace

from coherence_oracle import OracleDataManager, OracleHandle, check_invariants
from hypothesis import given, settings, strategies as st

from repro.hardware.catalog import build_platform
from repro.runtime.data import AccessMode, CoherenceError, DataHandle, DataManager, MemoryManager
from repro.sim import Simulator


@st.composite
def coherence_programs(draw):
    n_handles = draw(st.integers(1, 5))
    n_ops = draw(st.integers(1, 30))
    ops = []
    for _ in range(n_ops):
        ops.append(
            (
                draw(st.integers(0, n_handles - 1)),
                draw(st.sampled_from(list(AccessMode))),
                draw(st.integers(0, 4)),  # target memory node (0..4 on 4-GPU node)
            )
        )
    return n_handles, ops


@settings(max_examples=60, deadline=None)
@given(coherence_programs())
def test_msi_invariants_hold_under_any_access_sequence(program):
    n_handles, ops = program
    node = build_platform("32-AMD-4-A100", Simulator())
    dm = DataManager(node)
    handles = [DataHandle(1_000_000, f"h{i}") for i in range(n_handles)]
    now = 0.0
    for idx, mode, target in ops:
        h = handles[idx]
        ready = dm.acquire([(h, mode)], target, now)
        assert ready >= now
        dm.release([(h, mode)], target)
        # MSI invariants after every operation:
        check_invariants(h)
        if mode.reads and h.owner is None:
            assert target in h.valid_nodes
        if mode.writes:
            assert h.valid_nodes == {target}
        now = max(now, ready)
    # Final flush restores host copies of everything.
    dm.flush_to_host(handles)
    for h in handles:
        assert 0 in h.valid_nodes and h.owner is None


@st.composite
def memory_programs(draw):
    n_ops = draw(st.integers(1, 40))
    ops = []
    for _ in range(n_ops):
        ops.append(
            (
                draw(st.sampled_from(["add", "pin", "unpin", "touch", "remove"])),
                draw(st.integers(0, 7)),
            )
        )
    return ops


@settings(max_examples=60, deadline=None)
@given(memory_programs())
def test_memory_manager_accounting_is_exact(ops):
    mm = MemoryManager(1, capacity_bytes=1000)
    handles = [DataHandle(draw_size, f"h{i}") for i, draw_size in enumerate([200] * 8)]
    pins: dict[int, int] = {}
    for action, idx in ops:
        h = handles[idx]
        try:
            if action == "add":
                mm.add(h)
            elif action == "pin":
                if mm.resident(h):
                    mm.pin(h)
                    pins[idx] = pins.get(idx, 0) + 1
            elif action == "unpin":
                if pins.get(idx):
                    mm.unpin(h)
                    pins[idx] -= 1
            elif action == "touch":
                mm.touch(h)
            elif action == "remove":
                if not pins.get(idx):
                    mm.remove(h)
        except CoherenceError:
            pass  # all-pinned: legal refusal
        # Accounting invariants after every step:
        assert mm.used_bytes == sum(h2.nbytes for h2 in mm._resident)
        assert 0 <= mm.used_bytes <= mm.capacity_bytes
        assert mm.pinned_bytes == sum(h2.nbytes for h2 in mm._pinned)


# ------------------------------------------------- bitmask model vs oracle

MB = 1_000_000
#: Tight device memory: one task's largest working set (three 2 MB
#: handles) just fits, so evictions (and write-backs of dirty victims)
#: happen in most programs.
GPU_CAPACITY = 6 * MB
TARGETS = (0, 1, 2, 3, 4)


@st.composite
def data_programs(draw):
    n_handles = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.sampled_from([1 * MB, 2 * MB]), min_size=n_handles,
                          max_size=n_handles))
    accesses = st.lists(
        st.tuples(st.integers(0, n_handles - 1), st.sampled_from(list(AccessMode))),
        min_size=1, max_size=3, unique_by=lambda a: a[0],
    )
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("acquire"), accesses, st.sampled_from(TARGETS)),
            st.tuples(st.just("prefetch"), accesses, st.sampled_from(TARGETS)),
            st.tuples(st.just("release"), st.integers(0, 7)),
            st.tuples(st.just("abandon"), st.integers(0, 7)),
            st.tuples(st.just("flush")),
            st.tuples(st.just("advance"), st.floats(0.0, 2e-3)),
        ),
        min_size=1, max_size=40,
    ))
    return sizes, ops


def _models(sizes):
    models = []
    for manager_cls, handle_cls in ((DataManager, DataHandle), (OracleDataManager, OracleHandle)):
        sim = Simulator()
        dm = manager_cls(build_platform("32-AMD-4-A100", sim))
        for node_id in list(dm.managers):
            dm.managers[node_id] = MemoryManager(node_id, GPU_CAPACITY)
        handles = [handle_cls(size, f"h{i}") for i, size in enumerate(sizes)]
        models.append((sim, dm, handles))
    return models


def _assert_agree(new, old):
    (_, dm, handles), (_, odm, ohandles) = new, old
    for h, oh in zip(handles, ohandles):
        assert h.valid_nodes == oh.valid_nodes
        assert h.owner == oh.owner
    for link, olink in zip(dm.node.links, odm.node.links):
        assert link._avail_at == olink._avail_at
    assert dm.bytes_transferred == odm.bytes_transferred
    assert dm.n_transfers == odm.n_transfers
    for node_id, mgr in dm.managers.items():
        omgr = odm.managers[node_id]
        assert mgr.n_evictions == omgr.n_evictions
        assert [h.hid for h in mgr._resident] == [
            handles[ohandles.index(oh)].hid for oh in omgr._resident
        ]
        assert mgr.pinned_bytes == omgr.pinned_bytes
        assert mgr.pinned_bytes == sum(h.nbytes for h in mgr._pinned)


@settings(max_examples=150, deadline=None)
@given(data_programs())
def test_bitmask_model_matches_set_oracle(program):
    """Random acquire/release/prefetch/abandon/flush sequences over R, W
    and RW give the same replica sets, owners, ready times, link backlogs,
    transfers and evictions in the bitmask model as in the set oracle."""
    sizes, ops = program
    new, old = _models(sizes)
    now = 0.0
    in_flight: list[tuple[list, int]] = []  # (access indices, target)
    busy: set[int] = set()  # device targets with a pinned task
    for op in ops:
        kind = op[0]
        if kind == "advance":
            now += op[1]
            for sim, _, _ in (new, old):
                sim.run(until=now)
        elif kind == "flush":
            for _, dm, handles in (new, old):
                dm.flush_to_host(handles)
        elif kind in ("release", "abandon"):
            if not in_flight:
                continue
            accesses, target = in_flight.pop(op[1] % len(in_flight))
            busy.discard(target)
            for _, dm, handles in (new, old):
                getattr(dm, kind)([(handles[i], m) for i, m in accesses], target)
        else:
            _, accesses, target = op
            if kind == "acquire":
                if target in busy:
                    continue  # one pinned task per device keeps the pins < capacity
                readies = [
                    dm.acquire([(handles[i], m) for i, m in accesses], target, now)
                    for _, dm, handles in (new, old)
                ]
                assert readies[0] == readies[1]
                assert readies[0] >= now
                in_flight.append((accesses, target))
                if target != 0:
                    busy.add(target)
            else:
                _, dm, handles = new
                dm.prefetch([SimpleNamespace(
                    accesses=[(handles[i], m) for i, m in accesses], label="q",
                )], target)
                _, odm, ohandles = old
                odm.prefetch([(ohandles[i], m) for i, m in accesses], target, "q")
            estimates = [
                dm.transfer_estimates([(handles[i], m) for i, m in accesses], TARGETS)
                for _, dm, handles in (new, old)
            ]
            for t in TARGETS:
                assert estimates[0][t] == estimates[1][t]
            _, dm, handles = new
            assert estimates[0][target] == dm.transfer_estimate(
                [(handles[i], m) for i, m in accesses], target
            )
        _assert_agree(new, old)
