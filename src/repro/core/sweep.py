"""Kernel-level power-cap sweep (paper Sec. II, Fig. 1).

Runs a single cuBLAS-style GEMM on one simulated GPU at every cap from the
hardware minimum to TDP, measuring each point through the NVML facade — the
same protocol the paper uses on real silicon.  The sweep varies the cap in
2 % steps of TDP by default, matching the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro import nvml
from repro.hardware.catalog import gpu_spec
from repro.hardware.gpu import GPUDevice
from repro.hardware.specs import GPUSpec
from repro.kernels.gemm import GemmKernel
from repro.sim import Simulator


@dataclass(frozen=True)
class SweepPoint:
    """One cap setting of the sweep."""

    cap_w: float
    cap_pct_tdp: float
    time_s: float
    gflops: float
    power_w: float
    energy_j: float

    @property
    def efficiency(self) -> float:
        """Gflop/s/W."""
        return self.gflops / self.power_w


#: Most points :func:`cap_grid` builds.  The catalog steps (2, 5 and 10 %
#: of TDP) give a few dozen; a finer request is almost surely a typo, and an
#: unbounded one (``step_pct=1e-9`` asks for ~10^10 points) would fill memory.
MAX_CAP_GRID_POINTS = 1000


def check_step_pct(spec: GPUSpec, step_pct: float, name: str = "step_pct") -> None:
    """Raise :class:`ValueError` unless ``step_pct`` gives a usable grid.

    The step must be finite and > 0, must advance the grid's first point
    (``pct_lo + step_pct > pct_lo``; ``1e-300`` does not, so the grid would
    never end), and must give at most :data:`MAX_CAP_GRID_POINTS` points.
    ``name`` is how the message calls the step (the CLI passes its flag).
    """
    if not 0.0 < step_pct < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {step_pct!r}")
    pct_lo = 100.0 * spec.cap_min_w / spec.tdp_w
    pct_hi = 100.0 * spec.cap_max_w / spec.tdp_w
    if pct_lo + step_pct == pct_lo:
        raise ValueError(
            f"{name} {step_pct!r} is too small to advance from {pct_lo:g} % of TDP"
        )
    if (pct_hi - pct_lo) / step_pct > MAX_CAP_GRID_POINTS:
        raise ValueError(
            f"{name} {step_pct!r} gives more than {MAX_CAP_GRID_POINTS} cap "
            f"points between {pct_lo:g} and {pct_hi:g} % of TDP"
        )


def cap_grid(spec: GPUSpec, step_pct: float = 2.0) -> list[float]:
    """The sweep's cap grid: hardware minimum to maximum in ``step_pct`` of TDP.

    Caps are generated by *index* (``pct_lo + i * step_pct``), not by
    accumulating ``pct += step_pct``, so the grid is identical regardless of
    how many points it has — repeated float addition drifts (e.g. at
    ``step_pct=3.7`` the accumulated grid contained 159.20000000000002 W
    next to the intended 159.2 W), which perturbed sweep values and cache
    keys on platforms whose ``cap_min/tdp`` ratio is not exactly
    representable.  For drift-free steps (the catalog defaults 2/5/10) the
    index grid is bit-identical to the historical accumulation.

    Raises :class:`ValueError` unless :func:`check_step_pct` accepts the
    step: a zero, negative, NaN or too-small step would never reach the top
    of the grid, and a very fine one would not fit in memory.
    """
    check_step_pct(spec, step_pct)
    pct_lo = 100.0 * spec.cap_min_w / spec.tdp_w
    pct_hi = 100.0 * spec.cap_max_w / spec.tdp_w
    caps: list[float] = []
    i = 0
    while True:
        pct = pct_lo + i * step_pct
        if pct >= pct_hi - 1e-9:
            break
        caps.append(max(spec.cap_min_w, spec.tdp_w * pct / 100.0))
        i += 1
    caps.append(spec.cap_max_w)
    return caps


def measure_point(gpu: GPUDevice, sim: Simulator, kernel: GemmKernel) -> SweepPoint:
    """Execute the kernel once on the device and read energy via NVML.

    The one kernel-measurement loop: the simulated sweep and the dynamic
    cap governor both measure through it.
    """
    handle = nvml.nvmlDeviceGetHandleByIndex(gpu.index)
    e0_mj = nvml.nvmlDeviceGetTotalEnergyConsumption(handle)
    t0 = sim.now
    gpu.begin_kernel(kernel.precision, kernel.activity(gpu.spec), "sweep-gemm")
    duration = kernel.time_on_gpu(gpu)
    sim.schedule(duration, gpu.end_kernel)
    sim.run()
    elapsed = sim.now - t0
    energy_j = (nvml.nvmlDeviceGetTotalEnergyConsumption(handle) - e0_mj) / 1000.0
    return SweepPoint(
        cap_w=gpu.power_limit_w,
        cap_pct_tdp=100.0 * gpu.power_limit_w / gpu.spec.tdp_w,
        time_s=elapsed,
        gflops=kernel.flops / elapsed / 1e9,
        power_w=energy_j / elapsed,
        energy_j=energy_j,
    )


def sweep_gemm(
    model: str | GPUSpec,
    n: int,
    precision: str,
    step_pct: float = 2.0,
    m: Optional[int] = None,
    k: Optional[int] = None,
    cache: Optional["ExperimentCache"] = None,
) -> list[SweepPoint]:
    """Sweep the power cap for an ``n x n x n`` GEMM on one GPU model.

    Caps run from the hardware minimum to the maximum in ``step_pct`` of TDP
    (requests below the minimum constraint are clamped, as NVML enforces).
    The point list is produced by the planner's **exact analytic replay**
    (:func:`repro.core.planner.analytic_sweep_points`) — bit-identical to
    driving the Simulator through the NVML facade, without building either;
    :func:`simulated_sweep_gemm` keeps the instrumented path for audits.
    The sweep is a pure function of its arguments, so with ``cache`` set the
    whole point list is memoised (catalog models only — ad-hoc
    :class:`GPUSpec` objects are uncacheable and always run); analytic and
    simulated runs produce interchangeable cache entries.
    """
    if cache is not None:
        key = cache.key_for("sweep_gemm", (model, n, precision, step_pct, m, k))
        if key is not None:
            hit, value = cache.load(key)
            if hit:
                return value
            value = sweep_gemm(model, n, precision, step_pct=step_pct, m=m, k=k)
            cache.save(key, value, label=f"sweep/{model}/{precision}/n{n}")
            return value
    from repro.core.planner import analytic_sweep_points

    return analytic_sweep_points(model, n, precision, step_pct=step_pct, m=m, k=k)


def simulated_sweep_gemm(
    model: str | GPUSpec,
    n: int,
    precision: str,
    step_pct: float = 2.0,
    m: Optional[int] = None,
    k: Optional[int] = None,
) -> list[SweepPoint]:
    """The discrete-event sweep: one Simulator run per cap, read via NVML.

    Ground truth for the exactness gate: tests assert that
    :func:`sweep_gemm`'s analytic replay matches this list byte-for-byte
    on every catalog model and on ad-hoc specs.
    """
    spec = gpu_spec(model) if isinstance(model, str) else model
    sim = Simulator()
    gpu = GPUDevice(spec, 0, sim)
    kernel = GemmKernel(m or n, n, k or n, precision)

    class _OneGPUNode:
        gpus = [gpu]

    nvml.nvmlInit(_OneGPUNode())
    points: list[SweepPoint] = []
    try:
        for cap in cap_grid(spec, step_pct):
            gpu.set_power_limit(cap)
            points.append(measure_point(gpu, sim, kernel))
    finally:
        nvml.nvmlShutdown()
    return points


def sweep_many(
    cases: list[tuple],
    jobs: int = 1,
    step_pct: float = 2.0,
    cache: Optional["ExperimentCache"] = None,
) -> list[list[SweepPoint]]:
    """Run several independent cap sweeps, optionally over a process pool.

    ``cases`` is a list of ``(model, n, precision)`` tuples; the result is
    one point list per case, in input order.  Each sweep owns its Simulator
    and device, so the parallel results are bit-identical to serial ones
    (lazy import to avoid the ``core -> experiments`` cycle); with ``cache``
    set, hits are resolved before any pool work is submitted.
    """
    from repro.experiments.parallel import parallel_starmap

    return parallel_starmap(
        sweep_gemm,
        [(model, n, precision, step_pct) for model, n, precision in cases],
        jobs=jobs,
        cache=cache,
    )


def best_point(points: list[SweepPoint]) -> SweepPoint:
    """The sweep point with maximal energy efficiency."""
    if not points:
        raise ValueError("empty sweep")
    return max(points, key=lambda p: p.efficiency)
