"""A built task graph holds only what a run reads.

Per task that is the task, its access tuple and its successor list; per
tile, its handle and one ``(handle, mode)`` tuple for each mode it is
accessed in, shared by every task that accesses it so.  Numeric
verification reads a task's operands off one recipe shared by its build.
Nothing in a graph refers back to what refers to it, so a graph holds no
reference cycle: :func:`repro.core.tradeoff.gc_paused` relies on that.
"""

import gc

import numpy as np
import pytest
from graph_stats import unshared_accesses

from repro.apps import stencil_graph
from repro.core.tradeoff import gc_paused
from repro.experiments.platforms import operation_spec
from repro.linalg import assign_priorities, gemm_graph, gemm_mixed_graph, potrf_graph
from repro.linalg.numeric import execute_numeric, verify_gemm, verify_potrf

PLATFORM = "32-AMD-4-A100"
OPS = ["potrf", "gemm"]


def _small(op):
    return operation_spec(PLATFORM, op, "double", "small")


@pytest.mark.parametrize("op", OPS)
def test_a_built_graph_holds_three_tracked_objects_per_task(op):
    spec = _small(op)
    gc.collect()
    before = len(gc.get_objects())
    graph = spec.build_graph()
    tracked = len(gc.get_objects()) - before
    n_tasks = len(graph)
    n_pairs = len({pair for t in graph.tasks for pair in t.accesses})
    # The handles and pairs come per tile: 0.6 per task for small GEMM's
    # three 10 x 10 tile matrices, 0.3 for small POTRF's lower triangle.
    assert tracked <= 3 * n_tasks + len(graph.handles) + n_pairs + 16
    if op == "potrf":
        assert tracked / n_tasks <= 3.5


@pytest.mark.parametrize("op", OPS)
def test_tasks_share_their_access_pairs_and_one_recipe(op):
    graph = _small(op).build_graph()
    assert unshared_accesses(graph) == 0
    recipe = graph.tasks[0].recipe
    assert recipe is not None
    assert all(t.recipe is recipe for t in graph.tasks)


def test_numeric_execution_verifies_both_operations_from_the_recipe():
    nb = 4
    nt = _small("potrf").n // _small("potrf").nb
    graph, a = potrf_graph(nt * nb, nb, "double")
    original = a.materialize_spd(np.random.default_rng(0)).copy()
    execute_numeric(graph)
    assert verify_potrf(a, original, rtol=1e-10) < 1e-10

    nt = _small("gemm").n // _small("gemm").nb
    graph, a, b, c = gemm_graph(nt * nb, nb, "double")
    rng = np.random.default_rng(1)
    a0, b0, c0 = (m.materialize(rng=rng).copy() for m in (a, b, c))
    execute_numeric(graph)
    assert verify_gemm(c, a0, b0, c0, rtol=1e-10) < 1e-10


def test_task_graphs_hold_no_reference_cycles():
    builds = [
        lambda: potrf_graph(8 * 4, 4, "double")[0],
        lambda: gemm_graph(4 * 4, 4, "single")[0],
        lambda: gemm_mixed_graph(4 * 4, 4, 0.5)[0],
        lambda: stencil_graph(4 * 4, 4, iterations=3)[0],
    ]
    gc.collect()
    with gc_paused():
        for build in builds:
            graph = build()
            assign_priorities(graph)
            graph.validate()
            graph.roots()
            graph.total_flops()
            graph.distinct_ops()
            graph.reset()
            del graph
        found = gc.collect()
    assert found == 0
