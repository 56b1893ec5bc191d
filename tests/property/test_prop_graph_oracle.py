"""Property test: the single-pass graph builder matches the oracle builder.

Random access programs over R/W/RW modes, including tasks that access one
handle twice, go through both :class:`repro.runtime.graph.TaskGraph` and
``graph_oracle.OracleTaskGraph``.  Both must infer the same DAG.
"""

from graph_oracle import OracleTaskGraph
from hypothesis import example, given, settings, strategies as st

from repro.kernels.tile_kernels import TileOp
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
