"""Unit tests for per-tile kernel models."""

import pytest

from repro.hardware.catalog import XEON_GOLD_6126, gpu_spec
from repro.hardware.cpu import CPUPackage
from repro.hardware.gpu import GPUDevice
from repro.kernels import TILE_KINDS, TileOp, tile_kernels
from repro.sim import Simulator


@pytest.fixture
def gpu():
    return GPUDevice(gpu_spec("A100-SXM4-40GB"), 0, Simulator())


@pytest.fixture
def cpu():
    return CPUPackage(XEON_GOLD_6126, 0, Simulator())


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TileOp("lu", 512, "double")


def test_invalid_tile_size():
    with pytest.raises(ValueError):
        TileOp("gemm", 0, "double")


def test_flop_counts():
    nb = 100
    assert TileOp("gemm", nb, "double").flops == 2 * nb**3
    assert TileOp("trsm", nb, "double").flops == nb**3
    assert TileOp("potrf", nb, "double").flops == pytest.approx(nb**3 / 3)
    assert TileOp("syrk", nb, "double").flops == pytest.approx(nb**2 * (nb + 1))


@pytest.mark.parametrize(
    "table", ["_GPU_FACTOR", "_CPU_FACTOR", "_ACTIVITY", "GPU_SUPPORTED"]
)
def test_per_kind_tables_cover_exactly_the_kinds(table):
    assert set(getattr(tile_kernels, table)) == set(TILE_KINDS)


def test_cubic_flops_cover_every_non_special_kind():
    assert set(tile_kernels._CUBIC_FLOPS) == set(TILE_KINDS) - {"syrk", "stencil"}


def test_tile_bytes():
    assert TileOp("gemm", 64, "double").tile_bytes == 64 * 64 * 8
    assert TileOp("gemm", 64, "single").tile_bytes == 64 * 64 * 4


@pytest.mark.parametrize("kind", TILE_KINDS)
def test_gpu_time_positive(gpu, kind):
    op = TileOp(kind, 1024, "double")
    assert op.n_tiles_touched >= 1
    assert op.time_on_gpu(gpu) > 0


@pytest.mark.parametrize("kind", TILE_KINDS)
def test_cpu_time_positive(cpu, kind):
    assert TileOp(kind, 1024, "double").time_on_cpu_core(cpu) > 0


def test_gpu_much_faster_than_cpu_core_for_gemm(gpu, cpu):
    """The asymmetry the scheduler exploits: GPUs dominate GEMM tiles."""
    op = TileOp("gemm", 2880, "double")
    ratio = op.time_on_cpu_core(cpu) / op.time_on_gpu(gpu)
    assert ratio > 50


def test_gpu_advantage_smaller_for_potrf(gpu, cpu):
    """Panel factorisation is the GPU's weak spot."""
    gemm_ratio = (
        TileOp("gemm", 1920, "double").time_on_cpu_core(cpu)
        / TileOp("gemm", 1920, "double").time_on_gpu(gpu)
    )
    potrf_ratio = (
        TileOp("potrf", 1920, "double").time_on_cpu_core(cpu)
        / TileOp("potrf", 1920, "double").time_on_gpu(gpu)
    )
    assert potrf_ratio < gemm_ratio / 3


def test_cap_slows_gpu_tile(gpu):
    op = TileOp("gemm", 2880, "double")
    t_full = op.time_on_gpu(gpu)
    gpu.set_power_limit(150.0)
    assert op.time_on_gpu(gpu) > t_full


def test_cpu_cap_slows_cpu_tile(cpu):
    op = TileOp("gemm", 1920, "double")
    t_full = op.time_on_cpu_core(cpu)
    cpu.set_power_limit(60.0)
    assert op.time_on_cpu_core(cpu) > t_full


def test_single_precision_faster_on_cpu(cpu):
    d = TileOp("gemm", 1920, "double").time_on_cpu_core(cpu)
    s = TileOp("gemm", 1920, "single").time_on_cpu_core(cpu)
    assert s < d


def test_activity_ordering(gpu):
    """GEMM is the most power-hungry tile kernel, POTRF the least."""
    acts = {kind: TileOp(kind, 2880, "double").activity(gpu.spec) for kind in TILE_KINDS}
    assert acts["gemm"] >= acts["syrk"] >= acts["trsm"] >= acts["potrf"]


def test_power_on_gpu_below_cap(gpu):
    gpu.set_power_limit(216.0)
    for kind in TILE_KINDS:
        assert TileOp(kind, 2880, "double").power_on_gpu(gpu) <= 216.0 + 1e-9


def test_traffic_counts_touched_tiles():
    op = TileOp("gemm", 128, "double")
    assert op.traffic_bytes == 3 * op.tile_bytes
    assert TileOp("potrf", 128, "double").traffic_bytes == TileOp("potrf", 128, "double").tile_bytes
