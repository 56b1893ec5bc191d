"""Integration tests for the runtime engine."""

import pytest

from repro.hardware.catalog import build_platform
from repro.kernels.tile_kernels import TileOp
from repro.runtime import RuntimeSystem
from repro.runtime.data import AccessMode, DataHandle
from repro.runtime.graph import TaskGraph, TaskState
from repro.linalg import assign_priorities, gemm_graph, potrf_graph
from repro.sim import Simulator, Tracer


def _system(platform="24-Intel-2-V100", **kw):
    sim = Simulator()
    node = build_platform(platform, sim)
    return node, RuntimeSystem(node, **kw)


def _chain_graph(n=5, nb=512):
    g = TaskGraph()
    h = DataHandle(nb * nb * 8)
    op = TileOp("gemm", nb, "double")
    for _ in range(n):
        g.add_task(op, [(h, AccessMode.RW)])
    return g


def test_all_tasks_complete():
    _, rt = _system()
    g = _chain_graph(5)
    res = rt.run(g)
    assert res.n_tasks == 5
    assert all(t.state is TaskState.DONE for t in g.tasks)


def test_chain_never_overlaps():
    _, rt = _system()
    g = _chain_graph(6)
    rt.run(g)
    times = sorted((t.start_time, t.end_time) for t in g.tasks)
    for (s1, e1), (s2, e2) in zip(times, times[1:]):
        assert s2 >= e1 - 1e-12


def test_makespan_positive_and_energy_consistent():
    node, rt = _system()
    res = rt.run(_chain_graph(4))
    assert res.makespan_s > 0
    assert res.total_energy_j == pytest.approx(sum(res.energies_j.values()))
    assert set(res.energies_j) == {"cpu0", "cpu1", "gpu0", "gpu1"}


def test_gflops_and_efficiency_properties():
    _, rt = _system()
    res = rt.run(_chain_graph(4))
    assert res.gflops == pytest.approx(res.total_flops / res.makespan_s / 1e9)
    assert res.gflops_per_watt == pytest.approx(
        res.total_flops / res.total_energy_j / 1e9
    )


def test_deterministic_given_seed():
    _, rt1 = _system(seed=7)
    _, rt2 = _system(seed=7)
    g1, *_ = gemm_graph(512 * 4, 512, "double")
    g2, *_ = gemm_graph(512 * 4, 512, "double")
    r1, r2 = rt1.run(g1), rt2.run(g2)
    assert r1.makespan_s == r2.makespan_s
    assert r1.total_energy_j == r2.total_energy_j


def test_different_seed_changes_noise():
    _, rt1 = _system(seed=1)
    _, rt2 = _system(seed=2)
    r1 = rt1.run(_chain_graph(5))
    r2 = rt2.run(_chain_graph(5))
    assert r1.makespan_s != r2.makespan_s


@pytest.mark.parametrize(
    "sched", ["eager", "random", "ws", "dm", "dmda", "dmdar", "dmdas", "dmdae"]
)
def test_all_schedulers_complete_gemm(sched):
    _, rt = _system(scheduler=sched, seed=3)
    g, *_ = gemm_graph(512 * 3, 512, "double")
    res = rt.run(g)
    assert res.n_tasks == 27
    assert res.scheduler == sched


def test_dmdas_beats_random_on_heterogeneous_node():
    _, rt_dmdas = _system(scheduler="dmdas", seed=1)
    _, rt_rand = _system(scheduler="random", seed=1)
    g1, *_ = gemm_graph(1024 * 4, 1024, "double")
    g2, *_ = gemm_graph(1024 * 4, 1024, "double")
    t_dmdas = rt_dmdas.run(g1).makespan_s
    t_rand = rt_rand.run(g2).makespan_s
    assert t_dmdas < t_rand / 3


def test_capped_gpu_receives_fewer_tasks():
    """End-to-end check of the paper's adaptation claim."""
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    node.gpus[1].set_power_limit(100.0)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1)
    g, *_ = gemm_graph(1440 * 6, 1440, "double")
    res = rt.run(g)
    fast = res.worker_tasks["gpu-w0"]
    slow = res.worker_tasks["gpu-w1"]
    assert fast > slow * 1.5


def test_capping_reduces_energy_of_gemm():
    _, rt_full = _system("32-AMD-4-A100", scheduler="dmdas", seed=1)
    g1, *_ = gemm_graph(2880 * 6, 2880, "double")
    r_full = rt_full.run(g1)
    sim = Simulator()
    node = build_platform("32-AMD-4-A100", sim)
    node.set_gpu_caps([216.0] * 4)
    rt_cap = RuntimeSystem(node, scheduler="dmdas", seed=1)
    g2, *_ = gemm_graph(2880 * 6, 2880, "double")
    r_cap = rt_cap.run(g2)
    assert r_cap.total_energy_j < r_full.total_energy_j
    assert r_cap.makespan_s > r_full.makespan_s
    assert r_cap.gflops_per_watt > r_full.gflops_per_watt


def test_potrf_completes_and_uses_cpu_for_panels():
    _, rt = _system("24-Intel-2-V100", scheduler="dmdas", seed=1)
    g, _ = potrf_graph(1440 * 8, 1440, "double")
    assign_priorities(g)
    res = rt.run(g)
    assert res.n_tasks == len(g.tasks)
    cpu_tasks = sum(n for w, n in res.worker_tasks.items() if w.startswith("cpu"))
    assert cpu_tasks > 0, "POTRF panels should land on CPU workers"


def test_tracer_records_all_tasks():
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    tracer = Tracer()
    rt = RuntimeSystem(node, tracer=tracer, seed=1)
    g = _chain_graph(5)
    rt.run(g)
    assert len(tracer.by_kind("task")) == 5


def test_run_requires_simulator_clock():
    class FakeClock:
        now = 0.0

    from repro.hardware.catalog import PLATFORMS
    from repro.hardware.node import Node

    spec = PLATFORMS["24-Intel-2-V100"]
    node = Node("x", FakeClock(), spec.cpu_specs(), [], spec.link)
    from repro.runtime.engine import RuntimeError_

    with pytest.raises(RuntimeError_):
        RuntimeSystem(node)


def test_rogue_scheduler_handing_cpu_only_kernel_to_gpu_is_caught(monkeypatch):
    """The engine re-checks every pop: a policy that gives a CPU-only
    ``potrf`` tile to a GPU worker fails the run, naming both."""
    import repro.runtime.engine as engine_mod
    from repro.runtime.engine import RuntimeError_
    from repro.runtime.schedulers.eager import EagerScheduler

    class RogueScheduler(EagerScheduler):
        def pop(self, worker, now):
            if not self._queue:
                return None
            self.n_popped += 1
            return self._queue.popleft()

    monkeypatch.setattr(
        engine_mod, "make_scheduler",
        lambda name, workers, perf, data, rng: RogueScheduler(workers, perf, data, rng),
    )
    _, rt = _system()
    g, _ = potrf_graph(512 * 2, 512, "double")
    assert not g.tasks[0].op.runs_on_gpu
    with pytest.raises(RuntimeError_, match=r"gave 'potrf' to gpu-w0, which has no"):
        rt.run(g)


@pytest.mark.parametrize("field", ["exec_noise", "calib_noise"])
@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -0.01])
def test_bad_noise_sigma_rejected_with_its_name(field, sigma):
    """A NaN sigma used to surface as 'no worker can run' mid-run."""
    with pytest.raises(ValueError, match=field):
        _system(**{field: sigma})


def test_zero_noise_is_allowed():
    _, rt = _system(exec_noise=0.0, calib_noise=0.0)
    assert rt.run(_chain_graph(3)).n_tasks == 3


def test_calibrate_false_reuses_models():
    _, rt = _system(seed=1)
    g1 = _chain_graph(3)
    rt.run(g1)  # calibrates
    g2 = _chain_graph(3)
    res = rt.run(g2, calibrate=False)  # stale models still work
    assert res.n_tasks == 3


def test_spinning_released_after_run():
    node, rt = _system()
    rt.run(_chain_graph(3))
    assert all(cpu.n_spinning == 0 for cpu in node.cpus)


def test_worker_task_counts_sum():
    _, rt = _system()
    g, *_ = gemm_graph(512 * 3, 512, "double")
    res = rt.run(g)
    assert sum(res.worker_tasks.values()) == res.n_tasks


def test_energy_reset_between_runs():
    node, rt = _system()
    r1 = rt.run(_chain_graph(3))
    r2 = rt.run(_chain_graph(3))
    # Same workload, reset energies: both runs in the same ballpark.
    assert r2.total_energy_j == pytest.approx(r1.total_energy_j, rel=0.2)
