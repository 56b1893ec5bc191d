"""Tests for the power sampler."""

import pytest

from repro.hardware.catalog import build_platform
from repro.linalg import assign_priorities, gemm_graph
from repro.runtime import RuntimeSystem
from repro.sim import Simulator, Tracer
from repro.tools import PowerSampler


@pytest.fixture
def traced_run():
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    tracer = Tracer()
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1, tracer=tracer)
    graph, *_ = gemm_graph(1440 * 5, 1440, "double")
    assign_priorities(graph)
    sampler = PowerSampler(node, rt, period_s=0.004)
    sampler.start()
    result = rt.run(graph)
    return node, tracer, sampler, result


def test_sampler_collects_samples(traced_run):
    node, _, sampler, result = traced_run
    assert len(sampler.samples) > 10
    # Sample keys cover every device.
    assert set(sampler.samples[0].device_w) == {"cpu0", "cpu1", "gpu0", "gpu1"}


def test_sampler_average_between_idle_and_peak(traced_run):
    node, _, sampler, _ = traced_run
    idle = node.gpus[0].spec.idle_w
    peak = sampler.peak_w("gpu0")
    avg = sampler.average_w("gpu0")
    assert idle <= avg <= peak
    assert peak <= node.gpus[0].spec.cap_max_w + 1e-9


def test_sampler_total_consistency(traced_run):
    _, _, sampler, _ = traced_run
    s = sampler.samples[0]
    assert s.total_w == pytest.approx(sum(s.device_w.values()))


@pytest.mark.parametrize("period", [0.0, -0.01, float("nan"), float("inf")])
def test_sampler_rejects_non_positive_or_non_finite_period(period):
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    rt = RuntimeSystem(node, seed=0)
    with pytest.raises(ValueError, match="period_s must be finite and > 0"):
        PowerSampler(node, rt, period_s=period)


def test_sampler_empty():
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    rt = RuntimeSystem(node, seed=0)
    sampler = PowerSampler(node, rt)
    assert sampler.peak_w() == 0.0
    assert sampler.average_w() == 0.0
