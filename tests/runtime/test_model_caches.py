"""Invalidation rules for the hot-path analytic-model caches.

Three caches sit on the scheduler/execution hot path:

- ``GPUDevice`` caches its (freq, busy power) operating point and the
  tile-kernel ground-truth durations per cap — both must drop on
  ``set_power_limit`` (the paper's whole mechanism is re-measuring under a
  new cap);
- ``PerfModelSet`` caches resolved estimates per (op key, arch) — each
  ``record`` must invalidate exactly that entry, and wholesale model
  changes must drop everything;
- ``CPUPackage`` caches tile-kernel durations per cap, dropped on
  ``set_power_limit`` like the GPU's.

``TileOp`` also memoises its GPU activity per spec; activity does not
depend on the cap, so that memo is never invalidated, but it must answer
per spec.
"""

from __future__ import annotations

from repro.hardware.catalog import build_platform, gpu_spec
from repro.hardware.gpu import GPUDevice
from repro.kernels.gemm import GemmKernel
from repro.kernels.tile_kernels import _ACTIVITY, TileOp
from repro.runtime.data import AccessMode
from repro.runtime.perfmodel import PerfModelSet
from repro.sim import Simulator

OP = TileOp("gemm", 1024, "double")


def _gpu() -> GPUDevice:
    return GPUDevice(gpu_spec("A100-SXM4-40GB"), 0, Simulator())


def test_operating_point_cache_invalidated_on_cap_change():
    gpu = _gpu()
    f_hi = gpu.effective_freq("double", 1.0)
    p_hi = gpu.busy_power("double", 1.0)
    gpu.set_power_limit(gpu.spec.cap_min_w)
    assert gpu.effective_freq("double", 1.0) < f_hi
    assert gpu.busy_power("double", 1.0) < p_hi
    gpu.set_power_limit(gpu.spec.cap_max_w)
    assert gpu.effective_freq("double", 1.0) == f_hi
    assert gpu.busy_power("double", 1.0) == p_hi


def test_kernel_time_cache_invalidated_on_cap_change():
    gpu = _gpu()
    t_fast = OP.time_on_gpu(gpu)
    assert OP.time_on_gpu(gpu) == t_fast  # served from cache
    gpu.set_power_limit(gpu.spec.cap_min_w)
    t_capped = OP.time_on_gpu(gpu)
    assert t_capped > t_fast


def _cpu(platform="24-Intel-2-V100"):
    return build_platform(platform, Simulator()).cpus[0]


def test_cpu_kernel_time_cache_invalidated_on_cap_change():
    op = TileOp("potrf", 960, "double")
    cpu = _cpu()
    t_full = op.time_on_cpu_core(cpu)
    assert cpu.kernel_time_cache[op.key] == t_full
    assert op.time_on_cpu_core(cpu) == t_full  # served from cache
    cpu.set_power_limit(cpu.spec.cap_min_w)
    assert op.key not in cpu.kernel_time_cache
    t_capped = op.time_on_cpu_core(cpu)
    assert t_capped > t_full
    # Same answer as a package that never cached the uncapped duration.
    fresh = _cpu()
    fresh.set_power_limit(fresh.spec.cap_min_w)
    assert op.time_on_cpu_core(fresh) == t_capped


def _fresh_activity(op: TileOp, spec) -> float:
    base = GemmKernel.square(op.nb, op.precision).activity(spec)
    return max(0.05, base * _ACTIVITY[op.kind])


def test_activity_memo_answers_per_spec():
    op = TileOp("gemm", 960, "double")
    v100, a100 = gpu_spec("V100-PCIE-32GB"), gpu_spec("A100-SXM4-40GB")
    assert v100.n_sm != a100.n_sm
    expected = {id(v100): _fresh_activity(op, v100), id(a100): _fresh_activity(op, a100)}
    assert expected[id(v100)] != expected[id(a100)]
    for spec in (v100, a100, v100, a100):  # interleaved: no cross-talk
        assert op.activity(spec) == expected[id(spec)]
    # Activity does not depend on the cap: capping a device leaves it be.
    gpu = GPUDevice(a100, 0, Simulator())
    gpu.set_power_limit(a100.cap_min_w)
    assert op.activity(gpu.spec) == expected[id(a100)]


def test_precomputed_op_values_stay_out_of_identity():
    op = TileOp("syrk", 512, "double")
    op.activity(gpu_spec("A100-SXM4-40GB"))  # populate the memo
    twin = TileOp("syrk", 512, "double")
    assert op == twin and hash(op) == hash(twin)
    assert repr(op) == "TileOp(kind='syrk', nb=512, precision='double')"
    assert op.flops == 512.0**2 * 513.0
    assert op.runs_on_gpu is True
    assert TileOp("potrf", 512, "double").runs_on_gpu is False


def test_perfmodel_cache_invalidated_per_record():
    perf = PerfModelSet()
    perf.record(OP, "cuda0", 1.0)
    assert perf.estimate(OP, "cuda0") == 1.0
    perf.record(OP, "cuda0", 3.0)
    moved = perf.estimate(OP, "cuda0")
    assert moved != 1.0  # the refreshed entry reflects the new sample
    # A record for one arch must not disturb another's cached estimate.
    other = TileOp("syrk", 1024, "double")
    perf.record(other, "cpu0", 0.5)
    assert perf.estimate(OP, "cuda0") == moved


def test_perfmodel_cache_dropped_on_clear():
    perf = PerfModelSet()
    perf.record(OP, "cuda0", 2.0)
    assert perf.estimate(OP, "cuda0") == 2.0
    perf.clear()
    assert perf.estimate(OP, "cuda0") == perf.default_estimate_s


def test_access_mode_flags_are_plain_attributes():
    # The reads/writes flags moved off property dispatch; semantics intact.
    assert AccessMode.R.reads and not AccessMode.R.writes
    assert AccessMode.W.writes and not AccessMode.W.reads
    assert AccessMode.RW.reads and AccessMode.RW.writes
