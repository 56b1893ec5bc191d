"""Unit tests for the pynvml-compatible facade."""

import threading

import pytest

from repro import nvml
from repro.hardware.catalog import build_platform
from repro.sim import Simulator


@pytest.fixture
def node():
    sim = Simulator()
    node = build_platform("32-AMD-4-A100", sim)
    nvml.nvmlInit(node)
    yield node
    nvml.nvmlShutdown()


def test_uninitialized_raises():
    nvml.nvmlShutdown()
    with pytest.raises(nvml.NVMLError) as exc:
        nvml.nvmlDeviceGetCount()
    assert exc.value.value == nvml.NVML_ERROR_UNINITIALIZED


def test_device_count(node):
    assert nvml.nvmlDeviceGetCount() == 4


def test_handle_and_name(node):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    assert nvml.nvmlDeviceGetName(h) == "A100-SXM4-40GB"


def test_bad_index(node):
    with pytest.raises(nvml.NVMLError) as exc:
        nvml.nvmlDeviceGetHandleByIndex(4)
    assert exc.value.value == nvml.NVML_ERROR_INVALID_ARGUMENT


def test_limit_constraints_in_milliwatts(node):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    lo, hi = nvml.nvmlDeviceGetPowerManagementLimitConstraints(h)
    assert (lo, hi) == (100_000, 400_000)


def test_default_limit_is_tdp(node):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    assert nvml.nvmlDeviceGetPowerManagementDefaultLimit(h) == 400_000


def test_set_and_get_limit(node):
    h = nvml.nvmlDeviceGetHandleByIndex(1)
    nvml.nvmlDeviceSetPowerManagementLimit(h, 216_000)
    assert nvml.nvmlDeviceGetPowerManagementLimit(h) == 216_000
    assert node.gpus[1].power_limit_w == pytest.approx(216.0)


def test_set_limit_below_constraint_rejected(node):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    with pytest.raises(nvml.NVMLError):
        nvml.nvmlDeviceSetPowerManagementLimit(h, 50_000)


def test_power_usage_idle(node):
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    assert nvml.nvmlDeviceGetPowerUsage(h) == int(node.gpus[0].spec.idle_w * 1000)


def test_total_energy_counts_millijoules(node):
    sim = node.clock
    h = nvml.nvmlDeviceGetHandleByIndex(0)
    e0 = nvml.nvmlDeviceGetTotalEnergyConsumption(h)
    sim.schedule(2.0, lambda: None)
    sim.run()
    e1 = nvml.nvmlDeviceGetTotalEnergyConsumption(h)
    assert e1 - e0 == pytest.approx(2.0 * node.gpus[0].spec.idle_w * 1000, rel=1e-6)


def test_binding_is_per_thread():
    """Two threads bound to different nodes each see only their own GPUs
    and energy, however their calls interleave."""
    nodes = {
        "a": build_platform("32-AMD-4-A100", Simulator()),
        "b": build_platform("24-Intel-2-V100", Simulator()),
    }
    # Distinct energy counters per node: run b's GPUs for a while.
    sim_b = nodes["b"].clock
    sim_b.schedule(2.0, lambda: None)
    sim_b.run()
    bound = threading.Barrier(2)
    step = threading.Barrier(2)
    seen = {}

    def worker(key):
        node = nodes[key]
        nvml.nvmlInit(node)
        bound.wait()  # both threads bound before either reads
        reads = []
        for _ in range(3):
            step.wait()
            h = nvml.nvmlDeviceGetHandleByIndex(0)
            reads.append((
                nvml.nvmlDeviceGetCount(),
                nvml.nvmlDeviceGetName(h),
                nvml.nvmlDeviceGetTotalEnergyConsumption(h),
            ))
        nvml.nvmlShutdown()
        seen[key] = reads

    threads = [threading.Thread(target=worker, args=(k,)) for k in nodes]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    for key, node in nodes.items():
        gpu = node.gpus[0]
        expected = (len(node.gpus), gpu.spec.model,
                    int(round(gpu.energy_j() * 1000)))
        assert seen[key] == [expected] * 3
    assert seen["a"][0][2] != seen["b"][0][2]
