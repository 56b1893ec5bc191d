"""Integration tests for the trade-off runner (the Figs. 3/4 workhorse)."""

import gc

import pytest

from repro.core import tradeoff
from repro.core.capconfig import CapConfig, CapStates
from repro.core.cpu_capping import compare_cpu_capping
from repro.core.tradeoff import OperationSpec, run_config_set, run_operation

STATES_4 = CapStates(h_w=400.0, b_w=216.0, l_w=100.0)
STATES_2 = CapStates(h_w=250.0, b_w=150.0, l_w=100.0)

GEMM_SMALL = OperationSpec(op="gemm", n=5760 * 7, nb=5760, precision="double")


def test_operation_spec_validation():
    with pytest.raises(ValueError):
        OperationSpec(op="lu", n=100, nb=10, precision="double")
    with pytest.raises(ValueError):
        OperationSpec(op="gemm", n=100, nb=33, precision="double")
    # A zero tile size used to raise a bare ZeroDivisionError, and a
    # non-positive size was accepted until TileMatrix failed on it.
    for n, nb, name in ((64, 0, "nb"), (0, 64, "n"), (-64, 64, "n"), (64, -64, "nb")):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            OperationSpec(op="gemm", n=n, nb=nb, precision="double")


def test_operation_spec_builds_graphs():
    g = GEMM_SMALL.build_graph()
    assert len(g) == 7**3
    p = OperationSpec(op="potrf", n=64 * 5, nb=64, precision="single").build_graph()
    assert len(p) == 35
    assert max(t.priority for t in p.tasks) > 0  # priorities assigned


POTRF_TINY = OperationSpec(op="potrf", n=64 * 5, nb=64, precision="single")


def _spy_builder(monkeypatch, seen, fail=False):
    real = tradeoff.potrf_graph

    def builder(n, nb, precision):
        seen.append(gc.isenabled())
        if fail:
            raise RuntimeError("builder failed")
        return real(n, nb, precision)

    monkeypatch.setattr(tradeoff, "potrf_graph", builder)


def test_build_graph_pauses_gc_and_reenables_it(monkeypatch):
    seen = []
    _spy_builder(monkeypatch, seen)
    assert gc.isenabled()
    assert len(POTRF_TINY.build_graph()) == 35
    assert seen == [False]
    assert gc.isenabled()


def test_build_graph_leaves_a_disabled_gc_disabled(monkeypatch):
    seen = []
    _spy_builder(monkeypatch, seen)
    gc.disable()
    try:
        POTRF_TINY.build_graph()
        assert seen == [False]
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_build_graph_restores_gc_when_the_builder_raises(monkeypatch):
    seen = []
    _spy_builder(monkeypatch, seen, fail=True)
    with pytest.raises(RuntimeError, match="builder failed"):
        POTRF_TINY.build_graph()
    assert seen == [False]
    assert gc.isenabled()


def test_run_operation_returns_metrics():
    m = run_operation("32-AMD-4-A100", GEMM_SMALL, CapConfig("HHHH"), STATES_4, seed=1)
    assert m.config == "HHHH"
    assert m.makespan_s > 0 and m.energy_j > 0
    assert set(m.device_energy_j) == {"cpu0", "gpu0", "gpu1", "gpu2", "gpu3"}


def test_run_operation_config_length_mismatch():
    with pytest.raises(ValueError):
        run_operation("32-AMD-4-A100", GEMM_SMALL, CapConfig("HH"), STATES_4)


def test_bbbb_beats_default_efficiency_on_4gpu():
    base = run_operation("32-AMD-4-A100", GEMM_SMALL, CapConfig("HHHH"), STATES_4, seed=1)
    best = run_operation("32-AMD-4-A100", GEMM_SMALL, CapConfig("BBBB"), STATES_4, seed=1)
    assert best.efficiency > base.efficiency * 1.08
    assert best.perf_delta_pct(base) < -5
    assert best.energy_saving_pct(base) > 5


def test_unbalanced_config_is_intermediate():
    """HHBB must land between HHHH and BBBB on both axes (paper's trade-off)."""
    configs = [CapConfig(c) for c in ("HHHH", "HHBB", "BBBB")]
    out = run_config_set("32-AMD-4-A100", GEMM_SMALL, configs, STATES_4, seed=1)
    h, hb, b = out["HHHH"], out["HHBB"], out["BBBB"]
    assert b.gflops < hb.gflops < h.gflops
    assert h.efficiency < hb.efficiency < b.efficiency


def test_llll_is_slow_and_wasteful():
    out = run_config_set(
        "32-AMD-4-A100", GEMM_SMALL,
        [CapConfig("HHHH"), CapConfig("LLLL")], STATES_4, seed=1,
    )
    high, low = out["HHHH"], out["LLLL"]
    assert low.perf_delta_pct(high) < -60
    assert low.energy_saving_pct(high) < 0  # consumes MORE energy
    assert low.efficiency < high.efficiency


def test_cpu_caps_applied():
    m = run_operation(
        "24-Intel-2-V100",
        OperationSpec(op="gemm", n=1440 * 4, nb=1440, precision="double"),
        CapConfig("HH"),
        STATES_2,
        cpu_caps={1: 60.0},
        seed=1,
    )
    assert m.energy_j > 0


def test_cpu_capping_comparison_improves_efficiency():
    spec = OperationSpec(op="gemm", n=1440 * 5, nb=1440, precision="double")
    comparisons = compare_cpu_capping(
        "24-Intel-2-V100", spec, [CapConfig("HH"), CapConfig("BB")], STATES_2, seed=1
    )
    assert len(comparisons) == 2
    for c in comparisons:
        assert c.efficiency_improvement_pct > 1.0
        assert abs(c.perf_impact_pct) < 3.0  # "no performance loss"


def test_deterministic_across_invocations():
    a = run_operation("32-AMD-4-A100", GEMM_SMALL, CapConfig("HHBB"), STATES_4, seed=5)
    b = run_operation("32-AMD-4-A100", GEMM_SMALL, CapConfig("HHBB"), STATES_4, seed=5)
    assert a.makespan_s == b.makespan_s
    assert a.energy_j == b.energy_j
