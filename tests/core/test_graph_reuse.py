"""A finished task graph is reset and re-run, not rebuilt.

:meth:`TaskGraph.reset` must give back exactly what a fresh build gives,
and a re-run of a reset graph exactly what a run of a fresh graph gives.
:meth:`Run.execute` lends each thread's last finished graph to the next
run of the same operation; the slot rules are tested one by one.
"""

import threading

import pytest

from repro.core import runs
from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec, StaleGraphError, build_run
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.hardware.catalog import platform_spec
from repro.runtime.graph import Task

PLATFORMS = ("24-Intel-2-V100", "64-AMD-2-A100", "32-AMD-4-A100")
SCHEDULERS = ("dm", "dmda", "dmdas", "dmdar", "dmdae")
PLATFORM = "24-Intel-2-V100"
POTRF = operation_spec(PLATFORM, "potrf", "double", "tiny")
GEMM = operation_spec(PLATFORM, "gemm", "double", "tiny")
STATES = cap_states(PLATFORM, "potrf", "double", "tiny")


@pytest.fixture(autouse=True)
def empty_slot():
    """Each test starts, and leaves, this thread's slot empty."""
    runs._lent.slot = None
    yield
    runs._lent.slot = None


def _run(spec=POTRF, platform=PLATFORM, scheduler="dmdas", observe=False,
         operations=None):
    states = cap_states(platform, spec.op, spec.precision, "tiny")
    config = CapConfig("H" * platform_spec(platform).n_gpus)
    run = build_run(RunSpec(platform, spec, config, states,
                            scheduler=scheduler, seed=3, observe=observe))
    run.execute(operations or [spec])
    return run


def _task_slots(task: Task) -> dict:
    out = {}
    for name in Task.__slots__:
        value = getattr(task, name)
        if name == "successors":
            value = [s.tid for s in value]
        elif name == "accesses":
            value = [(h.label, m) for h, m in value]
        elif name == "payload":
            # Tile references name their matrix object; keep the indices.
            value = {k: v[1:] if isinstance(v, tuple) else v
                     for k, v in value.items()}
        out[name] = value
    return out


def _handle_state(graph) -> list:
    return [(h.label, h.nbytes, h.home_node, h.valid, h.dirty)
            for h in graph.handles]


def _schedule(run) -> list:
    return [(t.worker_name, t.start_time, t.end_time)
            for g in run.graphs for t in g.tasks]


# ------------------------------------------------------------- the oracle


@pytest.mark.parametrize("spec", [POTRF, GEMM], ids=["potrf", "gemm"])
def test_reset_gives_back_a_fresh_build(spec):
    graph = _run(spec).graphs[0]
    assert graph.n_resets == 0
    graph.reset()
    fresh = spec.build_graph()
    assert len(graph.tasks) == len(fresh.tasks)
    for task, want in zip(graph.tasks, fresh.tasks):
        assert _task_slots(task) == _task_slots(want), task.label
    assert _handle_state(graph) == _handle_state(fresh)
    assert graph.n_edges == fresh.n_edges
    graph.validate()


def test_a_run_leaves_state_a_reset_must_undo():
    # Guards the oracle above: a finished run changes every reset field.
    graph = _run().graphs[0]
    fresh = POTRF.build_graph()
    for name in ("state", "deps_remaining", "worker_name", "start_time",
                 "end_time"):
        assert any(getattr(t, name) != getattr(f, name)
                   for t, f in zip(graph.tasks, fresh.tasks)), name
    assert any(h.valid != 1 << h.home_node for h in graph.handles)


def test_a_reset_graph_forgets_a_dirty_device_replica():
    graph = POTRF.build_graph()
    handle = graph.handles[0]
    handle.valid, handle.dirty = 1 << 1, True
    graph.reset()
    assert (handle.valid, handle.dirty) == (1 << handle.home_node, False)


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_a_rerun_reproduces_a_fresh_run(platform, scheduler, tmp_path):
    spec = operation_spec(platform, "potrf", "double", "tiny")
    fresh = _run(spec, platform, scheduler, observe=True)
    assert fresh.graphs[0].n_resets == 0
    want_schedule = _schedule(fresh)
    fresh.decisions.write_jsonl(str(tmp_path / "fresh.jsonl"))

    again = _run(spec, platform, scheduler, observe=True)
    assert again.graphs[0] is fresh.graphs[0]
    assert again.graphs[0].n_resets == 1
    assert again.results == fresh.results
    assert _schedule(again) == want_schedule
    again.decisions.write_jsonl(str(tmp_path / "again.jsonl"))
    assert ((tmp_path / "again.jsonl").read_bytes()
            == (tmp_path / "fresh.jsonl").read_bytes())
    assert again.all_tasks_done() and again.executed_exactly_once()


CHAOS_FILES = ("chaos.json", "decisions.jsonl", "events.jsonl", "faults.jsonl",
               "trace.json", "result.json")


def _chaos(outdir):
    return run_chaos(RunSpec(PLATFORM, POTRF, CapConfig("HH"), STATES, seed=0,
                             scale="tiny", plan=preset_plan("kill-throttle", seed=0)),
                     outdir=str(outdir))


def test_a_chaos_rerun_reproduces_fresh_chaos_artefacts(tmp_path, monkeypatch):
    # The reference builds every graph; the second pass lends the
    # baseline's graph to the faulted run, and the first pass's to both.
    with monkeypatch.context() as m:
        m.setattr(runs, "_graph_for", lambda op, ran: op.build_graph())
        fresh = _chaos(tmp_path / "fresh")
    assert fresh.passed
    runs._lent.slot = None
    assert _chaos(tmp_path / "first").passed
    _, graph = runs._lent.slot
    assert graph.n_resets == 1
    assert _chaos(tmp_path / "second").passed
    assert runs._lent.slot[1] is graph and graph.n_resets == 3
    for name in CHAOS_FILES:
        want = (tmp_path / "fresh" / name).read_bytes()
        assert (tmp_path / "first" / name).read_bytes() == want, name
        assert (tmp_path / "second" / name).read_bytes() == want, name


# ------------------------------------------------------------ slot rules


def test_the_next_run_of_the_same_operation_reuses_the_graph():
    first = _run().graphs[0]
    assert _run().graphs[0] is first
    assert _run(GEMM).graphs[0] is not first  # another operation builds
    assert _run().graphs[0] is not first  # the miss dropped it


def test_phases_that_repeat_an_operation_build_fresh():
    lent = _run().graphs[0]
    run = _run(operations=[POTRF, POTRF])
    assert run.graphs[0] is lent
    assert run.graphs[1] is not lent and run.graphs[1].n_resets == 0
    assert run.all_tasks_done() and run.executed_exactly_once()
    # The same Run never gets back a graph its runtime has seen.
    run.execute([POTRF])
    assert all(run.graphs[2] is not g for g in run.graphs[:2])


def test_a_run_that_raises_never_returns_its_graph(monkeypatch):
    lent = _run().graphs[0]
    run = build_run(RunSpec(PLATFORM, POTRF, CapConfig("HH"), STATES))

    def boom(graph, **kwargs):
        raise RuntimeError("run failed")

    monkeypatch.setattr(run.runtime, "run", boom)
    with pytest.raises(RuntimeError, match="run failed"):
        run.execute([POTRF])
    assert run.graphs[0] is lent
    assert runs._lent.slot is None
    fresh = _run().graphs[0]
    assert fresh is not lent and fresh.n_resets == 0


def test_two_threads_get_distinct_graphs():
    mine = _run().graphs[0]
    theirs = []
    errors = []

    def worker():
        try:
            for _ in range(2):
                graph = _run().graphs[0]
                theirs.append((graph, graph.n_resets))
        except Exception as exc:  # the main thread asserts there were none
            errors.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and not errors
    assert theirs[0][0] is not mine and theirs[0][1] == 0
    assert theirs[1] == (theirs[0][0], 1)  # that thread's own slot
    assert _run().graphs[0] is mine


def test_a_build_nested_in_a_run_gets_a_fresh_graph():
    lent = _run().graphs[0]
    outer = build_run(RunSpec(PLATFORM, POTRF, CapConfig("HH"), STATES, seed=3))
    nested = []
    outer.runtime.sim.schedule_at(1e-4, lambda: nested.append(_run()))
    outer.execute([POTRF])
    (inner,) = nested
    assert outer.graphs[0] is lent
    assert inner.graphs[0] is not lent and inner.graphs[0].n_resets == 0
    assert outer.all_tasks_done() and inner.all_tasks_done()
    assert outer.results == _run().results


def test_a_stale_audit_raises():
    first = _run()
    assert first.all_tasks_done()
    second = _run()
    assert second.graphs[0] is first.graphs[0]
    with pytest.raises(StaleGraphError, match="reset for a later run"):
        first.all_tasks_done()
    assert second.all_tasks_done()
