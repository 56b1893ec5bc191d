"""Per-tile kernel models for the task-based operations.

Chameleon's routines decompose into tile kernels; these are the kernels of
the paper's two operations (GEMM, POTRF) plus the 5-point stencil of the
memory-bound extension.  Relative rates encode the well-known asymmetry the
paper's scheduling story depends on: GPUs are superb at GEMM-shaped updates
(gemm/syrk), acceptable at triangular solves, and poor at the small,
divergent panel factorisation (potrf) — which, like in Chameleon, ships as a
CPU-only codelet and pins the Cholesky critical path to the CPUs (paper
Sec. III-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cpu import CPUPackage
from repro.hardware.gpu import GPUDevice
from repro.kernels.gemm import GemmKernel
from repro.kernels.model import dtype_bytes
from repro.kernels.roofline import roofline_time

#: Tile-kernel kinds, their flop counts f(nb), and per-architecture
#: efficiency factors relative to the device's GEMM rate.
TILE_KINDS = (
    "gemm", "syrk", "trsm", "potrf",      # Cholesky / matrix multiply
    "stencil",                             # 5-point Jacobi tile update
)

_GPU_FACTOR = {
    "gemm": 1.00, "syrk": 0.88, "trsm": 0.45, "potrf": 0.03,
    "stencil": 0.90,
}
_CPU_FACTOR = {
    "gemm": 1.00, "syrk": 0.92, "trsm": 0.85, "potrf": 0.70,
    # One core is DRAM-starved on a 5-point sweep: a few GB/s of the
    # socket's bandwidth, i.e. a tiny fraction of its GEMM flop rate.
    "stencil": 0.04,
}
_ACTIVITY = {
    "gemm": 1.00, "syrk": 0.95, "trsm": 0.80, "potrf": 0.45,
    "stencil": 0.30,
}

#: Kinds with a CUDA codelet.  The POTRF panel is CPU-only, as in
#: Chameleon's default codelets.
GPU_SUPPORTED = {
    "gemm": True, "syrk": True, "trsm": True, "potrf": False,
    "stencil": True,
}

#: Fixed per-task CPU overhead (runtime bookkeeping + BLAS dispatch).
CPU_TASK_OVERHEAD_S = 8e-6

#: Flop count f(nb) = coefficient * nb**3 for the cubic kernels.
_CUBIC_FLOPS = {
    "gemm": 2.0,
    "trsm": 1.0,
    "potrf": 1.0 / 3.0,
}


def _tile_flops(kind: str, nb_int: int) -> float:
    nb = float(nb_int)
    if kind == "syrk":
        return nb**2 * (nb + 1.0)
    if kind == "stencil":
        return 5.0 * nb**2  # 5-point update: 4 adds + 1 multiply per point
    return _CUBIC_FLOPS[kind] * nb**3


@dataclass(frozen=True)
class TileOp:
    """One tile task: a ``kind`` kernel on ``nb x nb`` tiles."""

    kind: str
    nb: int
    precision: str

    def __post_init__(self) -> None:
        if self.kind not in TILE_KINDS:
            raise ValueError(f"unknown tile kernel {self.kind!r}")
        if self.nb <= 0:
            raise ValueError("tile size must be positive")
        dtype_bytes(self.precision)
        # Ops are immutable and keyed constantly on the scheduler hot path;
        # precompute the identity tuple (also the perf-model key) and hash.
        key = (self.kind, self.nb, self.precision)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))
        # Pure in the op, read once per task: computed here, once.  Plain
        # instance attributes, not dataclass fields, so they stay out of
        # eq, hash and repr.
        #: Whether a CUDA codelet exists for this kind.
        object.__setattr__(self, "runs_on_gpu", GPU_SUPPORTED[self.kind])
        #: Flop count of one tile kernel.
        object.__setattr__(self, "flops", _tile_flops(self.kind, self.nb))
        # Activity memo: ``id(spec) -> (spec, activity)``.  Activity is pure
        # in (op, spec); holding the spec keeps its id from being reused.
        object.__setattr__(self, "_activity_memo", {})

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------ work

    @property
    def n_tiles_touched(self) -> int:
        """Tiles read/written (for traffic estimates)."""
        return {
            "gemm": 3, "syrk": 2, "trsm": 2, "potrf": 1,
            "stencil": 6,  # centre + 4 halo reads + 1 write
        }[self.kind]

    @property
    def tile_bytes(self) -> int:
        return self.nb * self.nb * dtype_bytes(self.precision)

    @property
    def traffic_bytes(self) -> float:
        return float(self.n_tiles_touched * self.tile_bytes)

    def activity(self, gpu_spec) -> float:
        """Power-activity factor on a GPU (memoised per spec)."""
        hit = self._activity_memo.get(id(gpu_spec))
        if hit is not None and hit[0] is gpu_spec:
            return hit[1]
        base = GemmKernel.square(self.nb, self.precision).activity(gpu_spec)
        act = max(0.05, base * _ACTIVITY[self.kind])
        self._activity_memo[id(gpu_spec)] = (gpu_spec, act)
        return act

    # ------------------------------------------------------------- durations

    def time_on_gpu(self, gpu: GPUDevice) -> float:
        """Ground-truth duration on a GPU under its current cap.

        Pure in (op, spec, cap), so the result is cached on the device and
        invalidated when the cap changes (``set_power_limit``).
        """
        cached = gpu.kernel_time_cache.get(self.key)
        if cached is not None:
            return cached
        spec = gpu.spec
        gemm = GemmKernel.square(self.nb, self.precision)
        act = self.activity(spec)
        profile = spec.power_profiles[self.precision]
        f = gpu.effective_freq(self.precision, act)
        gflops = (
            spec.peak_gflops[self.precision]
            * gemm.utilization(spec)
            * _GPU_FACTOR[self.kind]
            * profile.perf_scale(f)
        )
        duration = roofline_time(
            self.flops, self.traffic_bytes, gflops, spec.mem_bw_gbs, spec.launch_overhead_s
        )
        gpu.kernel_time_cache[self.key] = duration
        return duration

    def power_on_gpu(self, gpu: GPUDevice) -> float:
        return gpu.busy_power(self.precision, self.activity(gpu.spec))

    def time_on_cpu_core(self, cpu: CPUPackage) -> float:
        """Ground-truth duration on one CPU core under the package cap.

        Pure in (op, spec, cap): cached on the package like
        :meth:`time_on_gpu`, and invalidated by ``set_power_limit``.
        """
        cached = cpu.kernel_time_cache.get(self.key)
        if cached is not None:
            return cached
        gflops = cpu.core_gflops(self.precision) * _CPU_FACTOR[self.kind]
        duration = self.flops / (gflops * 1e9) + CPU_TASK_OVERHEAD_S
        cpu.kernel_time_cache[self.key] = duration
        return duration
