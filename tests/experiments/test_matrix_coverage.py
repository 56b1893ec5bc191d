"""Broad coverage matrix: every operation x scheduler x platform smoke.

Small instances, but real end-to-end runs through graph building,
calibration, scheduling, coherence and energy accounting — the cheap
insurance that no combination silently regresses.
"""

import pytest
from coherence_oracle import check_invariants

from repro.apps import stencil_graph
from repro.hardware.catalog import build_platform, platform_names
from repro.linalg import assign_priorities, gemm_graph, potrf_graph
from repro.runtime import RuntimeSystem
from repro.runtime.graph import TaskState
from repro.sim import Simulator

NB = 720


def _graph(op: str):
    if op == "gemm":
        return gemm_graph(NB * 4, NB, "double")[0]
    if op == "potrf":
        return potrf_graph(NB * 6, NB, "double")[0]
    return stencil_graph(NB * 3, NB, iterations=3)[0]


OPS = ("gemm", "potrf", "stencil")


@pytest.mark.parametrize("platform", platform_names())
@pytest.mark.parametrize("op", OPS)
def test_operation_on_platform_dmdas(platform, op):
    sim = Simulator()
    node = build_platform(platform, sim)
    # Unbalanced caps: first GPU at min, rest default.
    caps = [g.spec.cap_max_w for g in node.gpus]
    caps[0] = node.gpus[0].spec.cap_min_w
    node.set_gpu_caps(caps)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1)
    graph = _graph(op)
    assign_priorities(graph)
    res = rt.run(graph)
    assert res.n_tasks == len(graph.tasks)
    assert all(t.state is TaskState.DONE for t in graph.tasks)
    assert res.total_energy_j > 0 and res.makespan_s > 0
    for handle in graph.handles:
        check_invariants(handle)


@pytest.mark.parametrize("scheduler", ["eager", "ws", "dm", "dmdar", "dmdae"])
@pytest.mark.parametrize("op", OPS)
def test_operation_under_scheduler(scheduler, op):
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    rt = RuntimeSystem(node, scheduler=scheduler, seed=2)
    graph = _graph(op)
    assign_priorities(graph)
    res = rt.run(graph)
    assert res.n_tasks == len(graph.tasks)
    assert sum(res.worker_tasks.values()) == res.n_tasks
