"""Tests for dynamic capping during a task-based run."""

import pytest

from repro.core.dynamic_runtime import RuntimeCapGovernor
from repro.govern.periodic import PeriodicController
from repro.hardware.catalog import build_platform
from repro.linalg import assign_priorities, gemm_graph
from repro.runtime import RuntimeSystem
from repro.sim import Simulator


def _run_with_governor(nt=12, step=25.0):
    sim = Simulator()
    node = build_platform("32-AMD-4-A100", sim)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1, ewma_alpha=0.3)
    graph, *_ = gemm_graph(5760 * nt, 5760, "double")
    assign_priorities(graph)
    gov = RuntimeCapGovernor(node, rt, step_w=step)
    gov.start()
    res = rt.run(graph)
    return res, gov


def _run_static(caps, nt=12):
    sim = Simulator()
    node = build_platform("32-AMD-4-A100", sim)
    if caps:
        node.set_gpu_caps(caps)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1)
    graph, *_ = gemm_graph(5760 * nt, 5760, "double")
    assign_priorities(graph)
    return rt.run(graph)


def test_governor_runs_and_completes():
    res, gov = _run_with_governor()
    assert res.n_tasks == 12**3
    assert len(gov.history) > 5  # ticked throughout the run


def test_governor_lowers_caps_from_default():
    _, gov = _run_with_governor()
    final = gov.final_caps()
    assert all(cap < 400.0 for cap in final)
    assert all(100.0 <= cap <= 400.0 for cap in final)


def test_governor_beats_static_default_efficiency():
    """Dynamic capping should recover a solid share of the static-B gain."""
    res_dyn, _ = _run_with_governor()
    res_default = _run_static(None)
    res_best = _run_static([220.0] * 4)
    assert res_dyn.gflops_per_watt > res_default.gflops_per_watt
    gain_dyn = res_dyn.gflops_per_watt / res_default.gflops_per_watt
    gain_best = res_best.gflops_per_watt / res_default.gflops_per_watt
    assert gain_dyn > 1.0 + 0.4 * (gain_best - 1.0)


def test_governor_stops_with_run():
    """The governor must not keep the event heap alive after the run."""
    sim_probe, gov = _run_with_governor(nt=6)
    # After run() returned, at most one armed tick remains un-fired and the
    # simulator must be drainable without looping forever.
    assert gov.runtime.pending_tasks == 0


def test_governor_history_caps_within_constraints():
    _, gov = _run_with_governor(step=60.0)
    for _, caps in gov.history:
        assert all(100.0 <= c <= 400.0 for c in caps)


def test_ewma_model_tracks_cap_changes():
    """EWMA estimates converge to the new speed after a cap change."""
    from repro.runtime.perfmodel import HistoryModel

    m = HistoryModel(ewma_alpha=0.5)
    key = ("gemm", 5760, "double")
    for _ in range(10):
        m.record(key, "cuda0", 1.0)
    for _ in range(10):
        m.record(key, "cuda0", 2.0)  # device slowed down
    assert m.estimate(key, "cuda0") == pytest.approx(2.0, rel=0.01)
    plain = HistoryModel()
    for _ in range(10):
        plain.record(key, "cuda0", 1.0)
    for _ in range(10):
        plain.record(key, "cuda0", 2.0)
    assert plain.estimate(key, "cuda0") == pytest.approx(1.5)


def test_ewma_alpha_validation():
    from repro.runtime.perfmodel import HistoryModel

    with pytest.raises(ValueError):
        HistoryModel(ewma_alpha=0.0)
    with pytest.raises(ValueError):
        HistoryModel(ewma_alpha=1.5)


# --------------------------------------------------- PeriodicController


class _Stub:
    """Just enough runtime surface for the tick loop."""

    def __init__(self):
        self.sim = Simulator()
        self.pending_tasks = 0


class _Counter(PeriodicController):
    def __init__(self, runtime, period_s=0.1):
        super().__init__(runtime, period_s)
        self.fired = []

    def on_tick(self):
        self.fired.append(self.sim.now)


def test_periodic_controller_rejects_bad_period():
    with pytest.raises(ValueError):
        _Counter(_Stub(), period_s=0.0)


def test_periodic_controller_ticks_while_work_pending():
    stub = _Stub()
    stub.pending_tasks = 1
    ctl = _Counter(stub)
    ctl.start()
    stub.sim.run(until=0.55)
    assert len(ctl.fired) == 5
    assert ctl.n_ticks == 5
    assert ctl.last_tick_t == pytest.approx(0.5)


def test_periodic_controller_goes_quiet_when_run_drains():
    """A pending tick past the last task must not fire on_tick — the same
    no-makespan-padding rule the recovery manager follows."""
    stub = _Stub()
    stub.pending_tasks = 1
    ctl = _Counter(stub)
    ctl.start()
    stub.sim.run(until=0.25)
    stub.pending_tasks = 0
    stub.sim.run(until=2.0)
    assert len(ctl.fired) == 2  # t=0.1, t=0.2; the t=0.3 tick bailed


def test_periodic_controller_stop_cancels_pending_tick():
    stub = _Stub()
    stub.pending_tasks = 1
    ctl = _Counter(stub)
    ctl.start()
    ctl.stop()
    stub.sim.run(until=1.0)
    assert ctl.fired == []


def test_periodic_controller_resume_rearms_between_phases():
    stub = _Stub()
    stub.pending_tasks = 1
    ctl = _Counter(stub)
    ctl.start()
    stub.sim.run(until=0.15)
    stub.pending_tasks = 0
    stub.sim.run(until=1.0)  # phase 1 drained; chain went quiet
    stub.pending_tasks = 1
    ctl.resume()
    stub.sim.run(until=1.25)
    assert len(ctl.fired) == 3  # 0.1, then 1.1 and 1.2 after resume
    ctl.resume()  # no-op: a tick is already pending
    stub.sim.run(until=1.35)
    assert len(ctl.fired) == 4
