"""Unit tests for implicit dependency inference and graph analysis."""

import pytest
from graph_stats import counts_by_kind, critical_path

from repro.hardware.catalog import build_platform
from repro.kernels.tile_kernels import TileOp
from repro.runtime import RuntimeSystem
from repro.runtime.data import AccessMode, DataHandle
from repro.runtime.graph import TaskGraph, TaskState
from repro.sim import Simulator


OP = TileOp("gemm", 64, "double")


def _h():
    return DataHandle(64 * 64 * 8)


def test_raw_dependency():
    g = TaskGraph()
    h = _h()
    w = g.add_task(OP, [(h, AccessMode.W)])
    r = g.add_task(OP, [(h, AccessMode.R)])
    assert r.deps_remaining == 1 and w.successors == [r]


def test_waw_dependency():
    g = TaskGraph()
    h = _h()
    w1 = g.add_task(OP, [(h, AccessMode.W)])
    w2 = g.add_task(OP, [(h, AccessMode.W)])
    assert w2.deps_remaining == 1 and w1.successors == [w2]


def test_war_dependency():
    g = TaskGraph()
    h = _h()
    g.add_task(OP, [(h, AccessMode.W)])
    r1 = g.add_task(OP, [(h, AccessMode.R)])
    r2 = g.add_task(OP, [(h, AccessMode.R)])
    w2 = g.add_task(OP, [(h, AccessMode.RW)])
    # w2 depends on both readers (WAR) and the original writer is subsumed.
    assert w2.deps_remaining == 2
    assert w2 in r1.successors and w2 in r2.successors


def test_independent_readers_are_parallel():
    g = TaskGraph()
    h = _h()
    g.add_task(OP, [(h, AccessMode.W)])
    r1 = g.add_task(OP, [(h, AccessMode.R)])
    r2 = g.add_task(OP, [(h, AccessMode.R)])
    assert r1.deps_remaining == 1 and r2.deps_remaining == 1
    assert r2 not in r1.successors and r1 not in r2.successors


def test_duplicate_dependencies_collapse():
    """A task reading two handles written by the same producer gets 1 edge."""
    g = TaskGraph()
    h1, h2 = _h(), _h()
    w = g.add_task(OP, [(h1, AccessMode.W), (h2, AccessMode.W)])
    r = g.add_task(OP, [(h1, AccessMode.R), (h2, AccessMode.R)])
    assert r.deps_remaining == 1
    assert w.successors.count(r) == 1


def test_rw_chain_serialises():
    g = TaskGraph()
    h = _h()
    tasks = [g.add_task(OP, [(h, AccessMode.RW)]) for _ in range(5)]
    for prev, nxt in zip(tasks, tasks[1:]):
        assert prev.successors == [nxt]
    assert g.roots() == [tasks[0]]


def test_roots_and_counts():
    g = TaskGraph()
    a, b = _h(), _h()
    g.add_task(OP, [(a, AccessMode.W)])
    g.add_task(OP, [(b, AccessMode.W)])
    g.add_task(TileOp("syrk", 64, "double"), [(a, AccessMode.R), (b, AccessMode.RW)])
    assert len(g.roots()) == 2
    assert counts_by_kind(g) == {"gemm": 2, "syrk": 1}
    assert len(g) == 3


def test_total_flops():
    g = TaskGraph()
    h = _h()
    g.add_task(OP, [(h, AccessMode.RW)])
    g.add_task(OP, [(h, AccessMode.RW)])
    assert g.total_flops() == 2 * OP.flops


def test_validate_passes_on_well_formed():
    g = TaskGraph()
    h = _h()
    for _ in range(4):
        g.add_task(OP, [(h, AccessMode.RW)])
    g.validate()


def test_critical_path_of_chain():
    g = TaskGraph()
    h = _h()
    for _ in range(6):
        g.add_task(OP, [(h, AccessMode.RW)])
    length, path = critical_path(g)
    assert length == 6 and len(path) == 6


def test_critical_path_weighted():
    g = TaskGraph()
    h = _h()
    g.add_task(OP, [(h, AccessMode.RW)])
    g.add_task(OP, [(h, AccessMode.RW)])
    length, _ = critical_path(g, weight=lambda t: 2.5)
    assert length == 5.0


def test_critical_path_empty_graph():
    assert critical_path(TaskGraph()) == (0.0, [])


def test_depth_priorities_decrease_along_chain():
    g = TaskGraph()
    h = _h()
    tasks = [g.add_task(OP, [(h, AccessMode.RW)]) for _ in range(4)]
    g.depth_priorities()
    prios = [t.priority for t in tasks]
    assert prios == [4, 3, 2, 1]


def test_task_state_lifecycle_initial():
    g = TaskGraph()
    t = g.add_task(OP, [(_h(), AccessMode.RW)])
    assert t.state is TaskState.CREATED
    assert t.worker_name is None


def test_handles_collected():
    g = TaskGraph()
    a, b = _h(), _h()
    g.add_task(OP, [(a, AccessMode.R), (b, AccessMode.W)])
    assert set(g.handles) == {a, b}


def test_reads_writes_helpers():
    g = TaskGraph()
    a, b = _h(), _h()
    t = g.add_task(OP, [(a, AccessMode.R), (b, AccessMode.RW)])
    assert t.reads() == [a, b]
    assert t.writes() == [b]


# ------------------------------------------------- validated once per graph


def _runtime():
    return RuntimeSystem(build_platform("24-Intel-2-V100", Simulator()))


def _diamond():
    g = TaskGraph()
    a, b = _h(), _h()
    g.add_task(OP, [(a, AccessMode.W), (b, AccessMode.W)])
    g.add_task(OP, [(a, AccessMode.RW)])
    g.add_task(OP, [(b, AccessMode.RW)])
    g.add_task(OP, [(a, AccessMode.R), (b, AccessMode.R)])
    return g


def _count_validations(monkeypatch, g):
    calls = []
    real = g.validate
    monkeypatch.setattr(g, "validate", lambda: calls.append(1) or real())
    return calls


def _edit_dep_count(g):
    g.tasks[3].deps_remaining = 1


def _edit_successors(g):
    g.tasks[1].successors.pop()


@pytest.mark.parametrize("edit", [_edit_dep_count, _edit_successors])
def test_a_hand_edited_graph_raises_from_validate_and_its_first_run(edit):
    g = _diamond()
    edit(g)
    with pytest.raises(ValueError, match="dep count mismatch"):
        g.validate()
    assert not g.validated
    with pytest.raises(ValueError, match="dep count mismatch"):
        _runtime().run(g)


def test_a_reset_graph_is_not_validated_again(monkeypatch):
    g = _diamond()
    calls = _count_validations(monkeypatch, g)
    _runtime().run(g)
    assert calls == [1] and g.validated
    g.reset()
    assert g.validated
    _runtime().run(g)
    assert calls == [1]
    assert all(t.state is TaskState.DONE for t in g.tasks)


def test_add_task_after_a_run_makes_the_next_run_validate(monkeypatch):
    g = _diamond()
    calls = _count_validations(monkeypatch, g)
    _runtime().run(g)
    g.reset()
    roots, flops = g.roots(), g.total_flops()
    g.add_task(OP, [(_h(), AccessMode.W)])
    assert not g.validated
    assert g.roots() == roots + [g.tasks[4]]
    assert g.total_flops() == flops + OP.flops
    res = _runtime().run(g)
    assert calls == [1, 1] and res.n_tasks == 5


def test_an_edge_edited_after_a_run_still_fails_validate():
    # The tasks are DONE, so only the built counts can disagree; reset()
    # would restore them against the edited edges.
    g = _diamond()
    _runtime().run(g)
    g.validate()
    _edit_successors(g)
    with pytest.raises(ValueError, match="dep count mismatch"):
        g.validate()
