"""Tiled GEMM: ``C += A @ B`` as a task graph.

The DAG contains ``nt**3`` identical compute-bound GEMM tasks; the only
dependencies are the serial accumulation chains on each C tile along ``k``
(``nt**2`` independent chains), giving the abundant parallelism the paper
notes is "representative of numerous other HPC applications".

A and B are only read, so ``gemm[i,j,k]`` depends on ``gemm[i,j,k-1]``
alone (nothing at ``k = 0``).  :func:`build_gemm` emits the tasks with
those edges (:meth:`~repro.runtime.graph.TaskGraph.emit`) when C is
neither A nor B and no tile of the three is known to the graph yet.
Otherwise it submits them through
:meth:`~repro.runtime.graph.TaskGraph.add_task`, whose hazard inference
stays the reference: an emitted graph equals the inferred one field for
field.  A second product into the same C, for one, depends on the first
one's C writers, which only inference sees.
"""

from __future__ import annotations

from itertools import chain

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode
from repro.runtime.graph import TaskGraph
from repro.linalg.tilematrix import TileMatrix


def build_gemm(
    graph: TaskGraph,
    a: TileMatrix,
    b: TileMatrix,
    c: TileMatrix,
    priority: int = 0,
) -> TaskGraph:
    """Append the tasks of ``C += A @ B`` to ``graph``."""
    if not (a.nt == b.nt == c.nt and a.nb == b.nb == c.nb):
        raise ValueError("A, B, C must share tile geometry")
    if not (a.precision == b.precision == c.precision):
        raise ValueError("A, B, C must share precision")
    nt = a.nt
    op = TileOp("gemm", a.nb, a.precision)
    R, RW = AccessMode.R, AccessMode.RW
    if c is a or c is b or any(
        map(graph.knows, chain(a.handles(), b.handles(), c.handles()))
    ):
        # C aliases an input, or earlier tasks touch these tiles: only
        # inference sees those edges.
        def submit(op, accesses, deps, priority, label, payload):
            return graph.add_task(op, accesses, priority, label, payload)
    else:
        submit = graph.emit
    # Local handle rows, filled at the tasks that first touch each tile, so
    # handles are created in the same order as one lookup per access:
    # row i of A during j == 0, column j of B during i == 0.
    b_cols: list[list] = [[] for _ in range(nt)]
    for i in range(nt):
        a_row: list = []
        for j in range(nt):
            cij = c.handle(i, j)
            b_col = b_cols[j]
            deps: tuple = ()  # the chain's last writer of C[i,j]
            for k in range(nt):
                if j == 0:
                    a_row.append(a.handle(i, k))
                if i == 0:
                    b_col.append(b.handle(k, j))
                deps = (submit(
                    op,
                    ((cij, RW), (a_row[k], R), (b_col[k], R)),
                    deps,
                    priority,
                    f"gemm[{i},{j},{k}]",
                    {
                        "kind": "gemm",
                        "C": (c, i, j),
                        "A": (a, i, k),
                        "B": (b, k, j),
                        "alpha": 1.0,
                        "transb": False,
                    },
                ),)
    return graph


def gemm_graph(n: int, nb: int, precision: str) -> tuple[TaskGraph, TileMatrix, TileMatrix, TileMatrix]:
    """Convenience: fresh matrices + graph for ``C += A @ B``."""
    a = TileMatrix(n, nb, precision, label="A")
    b = TileMatrix(n, nb, precision, label="B")
    c = TileMatrix(n, nb, precision, label="C")
    graph = TaskGraph()
    build_gemm(graph, a, b, c)
    return graph, a, b, c
