"""The energy step of every occupancy change refuses a clock that steps back.

``begin_core``/``end_core`` and ``begin_kernel``/``end_kernel`` integrate
energy inline (they run once or twice per simulated task); each keeps the
``clock moved backwards`` check of the out-of-line step.
"""

import pytest

from repro.hardware.catalog import XEON_GOLD_6126, gpu_spec
from repro.hardware.cpu import CPUPackage
from repro.hardware.gpu import GPUDevice


class SteppingClock:
    """A clock whose ``now`` the test moves by hand."""

    def __init__(self, now: float) -> None:
        self.now = now


def _cpu_begin(clock):
    cpu = CPUPackage(XEON_GOLD_6126, 0, clock)
    return cpu.begin_core


def _cpu_end(clock):
    cpu = CPUPackage(XEON_GOLD_6126, 0, clock)
    cpu.begin_core()
    return cpu.end_core


def _gpu_begin(clock):
    gpu = GPUDevice(gpu_spec("A100-SXM4-40GB"), 0, clock)
    return lambda: gpu.begin_kernel("double")


def _gpu_end(clock):
    gpu = GPUDevice(gpu_spec("A100-SXM4-40GB"), 0, clock)
    gpu.begin_kernel("double")
    return gpu.end_kernel


@pytest.mark.parametrize(
    "arm", [_cpu_begin, _cpu_end, _gpu_begin, _gpu_end],
    ids=["begin_core", "end_core", "begin_kernel", "end_kernel"],
)
def test_power_step_rejects_clock_moving_backwards(arm):
    clock = SteppingClock(2.0)
    step = arm(clock)
    clock.now = 1.0
    with pytest.raises(RuntimeError, match="clock moved backwards"):
        step()


@pytest.mark.parametrize(
    "arm", [_cpu_begin, _cpu_end, _gpu_begin, _gpu_end],
    ids=["begin_core", "end_core", "begin_kernel", "end_kernel"],
)
def test_power_step_accepts_an_unmoved_clock(arm):
    clock = SteppingClock(2.0)
    arm(clock)()
