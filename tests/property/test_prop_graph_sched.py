"""Property-based tests: task-graph construction and engine invariants.

Random task programs (random handles, access modes, priorities) are built
into graphs and executed on a simulated node under random schedulers; the
invariants checked are the correctness contract of the whole runtime:

- every task runs exactly once;
- no task starts before all its predecessors finished;
- a worker never runs two tasks at once;
- POTRF closed-form task counts hold for all tile counts.
"""

from graph_stats import critical_path
from hypothesis import given, settings, strategies as st

from repro.hardware.catalog import build_platform
from repro.kernels.tile_kernels import TileOp
from repro.linalg.potrf import potrf_graph, potrf_task_counts
from repro.runtime import RuntimeSystem
from repro.runtime.data import AccessMode, DataHandle
from repro.runtime.graph import TaskGraph, TaskState
from repro.sim import Simulator, Tracer


@st.composite
def task_programs(draw):
    """A random task program: handle *indices* so each build gets fresh
    handles (handles carry mutable coherence state)."""
    n_handles = draw(st.integers(2, 6))
    n_tasks = draw(st.integers(1, 25))
    program = []
    for _ in range(n_tasks):
        k = draw(st.integers(1, min(3, n_handles)))
        idxs = draw(
            st.lists(st.integers(0, n_handles - 1), min_size=k, max_size=k, unique=True)
        )
        modes = [draw(st.sampled_from(list(AccessMode))) for _ in idxs]
        prio = draw(st.integers(0, 5))
        program.append((list(zip(idxs, modes)), prio))
    return n_handles, program


def _build(program_spec) -> TaskGraph:
    n_handles, program = program_spec
    handles = [DataHandle(256 * 256 * 8, f"h{i}") for i in range(n_handles)]
    graph = TaskGraph()
    op = TileOp("gemm", 256, "double")
    for accesses, prio in program:
        graph.add_task(op, [(handles[i], m) for i, m in accesses], priority=prio)
    return graph


@given(task_programs())
def test_graph_structurally_valid(program):
    graph = _build(program)
    graph.validate()
    # Dependency edges always point forward in submission order.
    for t in graph.tasks:
        for s in t.successors:
            assert s.tid > t.tid


@given(task_programs())
def test_critical_path_at_most_task_count(program):
    graph = _build(program)
    length, path = critical_path(graph)
    assert 1 <= length <= len(graph)
    assert len(path) == length


@settings(max_examples=25, deadline=None)
@given(task_programs(), st.sampled_from(["eager", "ws", "dm", "dmdas"]), st.integers(0, 3))
def test_engine_executes_any_program_correctly(program, scheduler, seed):
    graph = _build(program)
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    tracer = Tracer()
    rt = RuntimeSystem(node, scheduler=scheduler, seed=seed, tracer=tracer)
    result = rt.run(graph)

    # Every task ran exactly once.
    assert result.n_tasks == len(graph)
    assert all(t.state is TaskState.DONE for t in graph.tasks)
    assert sum(result.worker_tasks.values()) == len(graph)

    # Dependencies respected.
    for t in graph.tasks:
        for s in t.successors:
            assert s.start_time >= t.end_time - 1e-9

    # No overlap per worker.
    for worker in {t.worker_name for t in graph.tasks}:
        ivs = sorted(
            (t.start_time, t.end_time) for t in graph.tasks if t.worker_name == worker
        )
        for (s1, e1), (s2, e2) in zip(ivs, ivs[1:]):
            assert s2 >= e1 - 1e-9

    # Energy accounting: strictly positive, all devices present.
    assert result.total_energy_j > 0
    assert set(result.energies_j) == {"cpu0", "cpu1", "gpu0", "gpu1"}


@settings(max_examples=25, deadline=None)
@given(task_programs(), st.integers(0, 5))
def test_engine_deterministic_for_seed(program, seed):
    def once():
        graph = _build(program)
        sim = Simulator()
        node = build_platform("24-Intel-2-V100", sim)
        rt = RuntimeSystem(node, scheduler="dmdas", seed=seed)
        res = rt.run(graph)
        return res.makespan_s, res.total_energy_j

    assert once() == once()


@given(st.integers(1, 30))
def test_potrf_counts_formula(nt):
    counts = potrf_task_counts(nt)
    assert counts["total"] == nt * (nt + 1) * (nt + 2) // 6
    assert (
        counts["potrf"] + counts["trsm"] + counts["syrk"] + counts["gemm"]
        == counts["total"]
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 10))
def test_potrf_graph_matches_formula(nt):
    graph, _ = potrf_graph(32 * nt, 32, "double")
    assert len(graph) == potrf_task_counts(nt)["total"]
