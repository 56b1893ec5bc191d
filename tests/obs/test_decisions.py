"""Decision-log tests: replay fidelity against real scheduler runs."""

import pytest

from repro.hardware.catalog import build_platform
from repro.linalg import assign_priorities, gemm_graph
from repro.obs.decisions import CandidateClass, DecisionLog, DecisionRecord
from repro.runtime import RuntimeSystem
from repro.sim import Simulator


def make_record(chosen="w1", costs=((3.0,), (1.0,))):
    return DecisionRecord(
        tid=0, label="t", kind="gemm", time=0.0,
        chosen=chosen, chosen_cost=min(c[0] for c in costs),
        candidates=tuple(
            CandidateClass(
                class_key=f"k{i}", workers=(f"w{i}",), indices=(i,),
                backlogs=(0.0,), terms=(), costs=c,
            )
            for i, c in enumerate(costs)
        ),
    )


def test_replay_picks_min_cost():
    rec = make_record()
    assert rec.replay_choice() == ("w1", 1.0)


def test_replay_tie_breaks_on_lower_worker_index():
    rec = make_record(chosen="w0", costs=((2.0,), (2.0,)))
    assert rec.replay_choice()[0] == "w0"


def test_replay_refolds_when_costs_absent():
    cand = CandidateClass(
        class_key="cuda", workers=("a", "b"), indices=(0, 1),
        backlogs=(1.0, 0.25), terms=(0.5, 0.125),
    )
    rec = DecisionRecord(
        tid=0, label="t", kind="gemm", time=0.0,
        chosen="b", chosen_cost=0.875, candidates=(cand,),
    )
    assert cand.cost_of(1) == 0.875
    assert rec.replay_choice() == ("b", 0.875)
    assert cand.estimate_s == 0.5 and cand.transfer_s == 0.125


def test_replay_requires_candidates():
    rec = DecisionRecord(
        tid=0, label="t", kind="gemm", time=0.0,
        chosen="w", chosen_cost=0.0, candidates=(),
    )
    with pytest.raises(ValueError):
        rec.replay_choice()


def test_backlog_snapshot_unions_candidates():
    rec = make_record()
    assert rec.backlog_snapshot() == {"w0": 0.0, "w1": 0.0}


def test_jsonl_round_trip(tmp_path):
    log = DecisionLog()
    log.append(make_record())
    path = tmp_path / "decisions.jsonl"
    log.write_jsonl(str(path))
    loaded = DecisionLog.read_jsonl(str(path))
    assert loaded.records == log.records
    assert loaded.by_worker() == {"w1": 1}


def _run_logged(scheduler):
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    log = DecisionLog()
    rt = RuntimeSystem(node, scheduler=scheduler, seed=1, decision_log=log)
    graph, *_ = gemm_graph(1440 * 4, 1440, "double")
    assign_priorities(graph)
    return rt.run(graph), log


@pytest.mark.parametrize("scheduler", ["dm", "dmda", "dmdar", "dmdas", "dmdae"])
def test_log_replays_every_choice(scheduler):
    """Acceptance: the log reproduces the chosen worker for every task."""
    result, log = _run_logged(scheduler)
    assert len(log) == result.n_tasks
    assert log.verify_replay() == []


def test_log_matches_executed_worker_counts():
    """dm-family queues are per-worker, so placement == execution."""
    result, log = _run_logged("dmdas")
    executed = {w: n for w, n in result.worker_tasks.items() if n}
    assert log.by_worker() == executed


def test_brute_force_path_logs_identically(monkeypatch):
    from repro.runtime.schedulers.dm import DMScheduler

    result_fast, log_fast = _run_logged("dmdas")
    monkeypatch.setattr(DMScheduler, "brute_force_placement", True)
    result_slow, log_slow = _run_logged("dmdas")
    assert result_fast.makespan_s == result_slow.makespan_s
    assert log_slow.verify_replay() == []
    assert [r.chosen for r in log_fast] == [r.chosen for r in log_slow]


def test_disabled_log_costs_nothing():
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1)
    assert rt.decision_log is None
    graph, *_ = gemm_graph(1440 * 3, 1440, "double")
    assign_priorities(graph)
    rt.run(graph)  # no log attached; nothing recorded, nothing raised


def _class_members(scheduler, task, excluded):
    """Expected logged classes, built independently: label -> (names, indices)
    of the surviving workers that can run ``task``, in worker order."""
    out: dict = {}
    for index, worker in enumerate(scheduler.workers):
        if worker.name in excluded or (worker.is_gpu and not task.op.runs_on_gpu):
            continue
        label = scheduler.placement_class_label(worker)
        names, indices = out.get(label, ((), ()))
        out[label] = (names + (worker.name,), indices + (index,))
    return out


@pytest.mark.parametrize("scheduler_name", ["dm", "dmdas"])
def test_logged_classes_follow_exclusion_and_readmission(scheduler_name):
    """Decisions logged after ``exclude_worker`` name only the survivors,
    and after ``readmit_worker`` the whole class again."""
    import numpy as np

    from repro.runtime.schedulers import make_scheduler

    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    rt = RuntimeSystem(node, scheduler=scheduler_name, seed=1)
    graph, *_ = gemm_graph(1440 * 2, 1440, "double")
    rt.calibrate(graph)
    sched = make_scheduler(scheduler_name, rt.workers, rt.perf, rt.data,
                           np.random.default_rng(0))
    log = sched.decision_log = DecisionLog()
    task = graph.tasks[0]
    assert task.op.runs_on_gpu
    cpus = [w for w in sched.workers if not w.is_gpu]
    gpu = next(w for w in sched.workers if w.is_gpu)
    # A CPU worker from the middle of its class (its index array gets a
    # hole) and a whole single-GPU class.
    gone = (cpus[len(cpus) // 2], gpu)

    def logged():
        sched.push_ready(task, 0.0)
        rec = log.records[-1]
        assert rec.replay_choice()[0] == rec.chosen
        return {c.class_key: (c.workers, c.indices) for c in rec.candidates}

    before = logged()
    assert before == _class_members(sched, task, set())
    for worker in gone:
        sched.exclude_worker(worker)
    after_exclusion = logged()
    assert after_exclusion == _class_members(sched, task, {w.name for w in gone})
    assert after_exclusion != before
    for worker in gone:
        sched.readmit_worker(worker)
    assert logged() == before
