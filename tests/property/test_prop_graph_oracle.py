"""Property test: the single-pass graph builder matches the oracle builder.

Random access programs over R/W/RW modes, including tasks that access one
handle twice, go through both :class:`repro.runtime.graph.TaskGraph` and
``graph_oracle.OracleTaskGraph``.  Both must infer the same DAG.

The POTRF and GEMM builders emit their edges from tile indices instead of
inferring them; each emitted graph must equal the one ``add_task`` infers
when the same tasks are re-submitted in task order, field by field, and a
later ``add_task`` must see the same hazards on both.  With
``REPRO_SLOW=1`` this is checked for every Table II graph at its own size.
"""

import os

import pytest
from graph_oracle import OracleTaskGraph
from graph_stats import unshared_accesses
from hypothesis import example, given, settings, strategies as st

from repro.experiments.platforms import TABLE2_PAPER, operation_spec
from repro.kernels.tile_kernels import TileOp
from repro.linalg import TileMatrix, assign_priorities, build_gemm, build_potrf
from repro.runtime.data import AccessMode, DataHandle
from repro.runtime.graph import TaskGraph

_MODES = list(AccessMode)
_OP = TileOp("gemm", 64, "double")


@st.composite
def access_programs(draw):
    n_handles = draw(st.integers(1, 6))
    program = []
    for _ in range(draw(st.integers(1, 40))):
        accesses = draw(st.lists(
            st.tuples(st.integers(0, n_handles - 1), st.sampled_from(_MODES)),
            min_size=1, max_size=3,
        ))
        if draw(st.booleans()):
            # The same handle a second time in this task, in any mode.
            accesses.append((accesses[0][0], draw(st.sampled_from(_MODES))))
        program.append(accesses)
    return n_handles, program


def _shape(graph):
    return (
        [t.tid for t in graph.tasks],
        [[s.tid for s in t.successors] for t in graph.tasks],
        [t.deps_remaining for t in graph.tasks],
        graph.n_edges,
        [id(h) for h in graph.handles],
    )


@settings(max_examples=200, deadline=None)
@given(access_programs())
@example((2, [
    [(0, AccessMode.R), (1, AccessMode.R)],
    [(0, AccessMode.R), (0, AccessMode.W)],  # reads then writes one handle
    [(1, AccessMode.W), (1, AccessMode.R)],  # writes then reads one handle
    [(0, AccessMode.RW), (1, AccessMode.RW), (0, AccessMode.R)],
]))
def test_single_pass_builder_matches_oracle(program):
    n_handles, tasks = program
    handles = [DataHandle(1024, f"h{i}") for i in range(n_handles)]
    graph, oracle = TaskGraph(), OracleTaskGraph()
    for accesses in tasks:
        for g in (graph, oracle):
            g.add_task(_OP, [(handles[i], mode) for i, mode in accesses])
    assert _shape(graph) == _shape(oracle)
    graph.validate()


# ------------------------------------------------ emitted POTRF and GEMM


class _CountingGraph(TaskGraph):
    """Counts :meth:`add_task` calls, which an emitted build makes none of."""

    n_inferred = 0

    def add_task(self, *args, **kwargs):
        self.n_inferred += 1
        return super().add_task(*args, **kwargs)


def _replay(graph):
    """The reference: the same tasks re-submitted through ``add_task``."""
    ref = TaskGraph()
    for t in graph.tasks:
        ref.add_task(t.op, t.accesses, t.priority, t.label, t.recipe)
    return ref


def _fields(graph):
    return (
        [(t.tid, t.label, t.op, t.accesses, t.recipe, t.priority,
          [s.tid for s in t.successors], t.deps_remaining)
         for t in graph.tasks],
        graph._built_deps,
        graph.n_edges,
        [id(h) for h in graph.handles],
    )


def _assert_same_graph(graph, ref):
    assert _fields(graph) == _fields(ref)
    graph.depth_priorities()
    ref.depth_priorities()
    assert [t.priority for t in graph.tasks] == [t.priority for t in ref.tasks]


#: Later submissions over a built graph's handles: (handle pick, mode)
#: lists, each pick taken modulo the number of handles.
later_tasks = st.lists(
    st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(_MODES)),
             min_size=1, max_size=3),
    max_size=6,
)


def _submit_later(graph, ref, later):
    """``add_task`` after the build must see the same hazards on both."""
    handles = graph.handles
    for accesses in later:
        for g in (graph, ref):
            g.add_task(_OP, [(handles[i % len(handles)], m) for i, m in accesses])
    assert _fields(graph) == _fields(ref)
    graph.validate()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.sampled_from(["double", "single"]), later_tasks)
@example(40, "double", [[(0, AccessMode.RW)], [(7, AccessMode.R)]])
def test_emitted_potrf_equals_the_inferred_graph(nt, precision, later):
    a = TileMatrix(nt * 4, 4, precision, symmetric=True)
    graph = _CountingGraph()
    build_potrf(graph, a)
    assert graph.n_inferred == 0
    graph.validate()
    ref = _replay(graph)
    _assert_same_graph(graph, ref)
    _submit_later(graph, ref, later)


# nt**3 tasks each: fewer draws than POTRF's nt**3 / 6.
@settings(max_examples=8, deadline=None)
@given(st.integers(1, 40), st.sampled_from(["double", "single"]),
       st.integers(), later_tasks)
@example(40, "single", 3, [[(0, AccessMode.R), (1, AccessMode.W)]])
def test_emitted_gemm_equals_the_inferred_graph(nt, precision, priority, later):
    a, b, c = (TileMatrix(nt * 4, 4, precision, label=x) for x in "ABC")
    graph = _CountingGraph()
    build_gemm(graph, a, b, c, priority=priority)
    assert graph.n_inferred == 0
    graph.validate()
    ref = _replay(graph)
    _assert_same_graph(graph, ref)
    _submit_later(graph, ref, later)


def test_a_second_gemm_into_the_same_c_waits_for_the_first():
    nt = 3
    a, b, c = (TileMatrix(nt * 4, 4, "double", label=x) for x in "ABC")
    graph = _CountingGraph()
    build_gemm(graph, a, b, c)
    build_gemm(graph, a, b, c)
    # The first build is emitted; the second sees known tiles and infers.
    assert graph.n_inferred == nt ** 3
    _assert_same_graph(graph, _replay(graph))
    first, second = graph.tasks[:nt ** 3], graph.tasks[nt ** 3:]
    for chain in range(nt * nt):
        last = first[chain * nt + nt - 1]
        head = second[chain * nt]
        assert last.label == head.label.replace(",0]", f",{nt - 1}]")
        assert head in last.successors and head.deps_remaining == 1


def test_builds_over_known_or_aliased_tiles_infer():
    nt = 4
    a = TileMatrix(nt * 4, 4, "double", symmetric=True)
    graph = _CountingGraph()
    graph.add_task(_OP, [(a.handle(2, 1), AccessMode.RW)])
    build_potrf(graph, a)
    assert graph.n_inferred == 1 + nt * (nt + 1) * (nt + 2) // 6
    _assert_same_graph(graph, _replay(graph))

    x, y = (TileMatrix(nt * 4, 4, "double", label=n) for n in "XY")
    for args in ((x, y, x), (x, y, y)):
        graph = _CountingGraph()
        build_gemm(graph, *args)
        assert graph.n_inferred == nt ** 3
        _assert_same_graph(graph, _replay(graph))


@pytest.mark.skipif(os.environ.get("REPRO_SLOW") != "1",
                    reason="set REPRO_SLOW=1 for paper-scale runs")
def test_emitted_graphs_equal_inferred_ones_at_the_papers_sizes():
    """Every Table II graph at its own size (POTRF nt 50, 40, 60; GEMM nt
    15, 12, 13), built as a run builds it, equals the graph ``add_task``
    infers for the same tasks, and shares one tuple per access pair.  Its
    built priorities equal the ones ``assign_priorities`` gives the
    inferred graph afresh."""
    for platform, op, precision in TABLE2_PAPER:
        graph = operation_spec(platform, op, precision, "paper").build_graph()
        assert unshared_accesses(graph) == 0, (platform, op, precision)
        ref = _replay(graph)
        assign_priorities(ref)
        assert ([t.priority for t in graph.tasks]
                == [t.priority for t in ref.tasks]), (platform, op, precision)
        _assert_same_graph(graph, ref)
