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
one's C writers, which only inference sees.  The mixed-precision GEMM
(:mod:`repro.linalg.mixed`) builds through the same loop,
:func:`product_tasks`.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode
from repro.runtime.graph import Task, TaskGraph, label_indices
from repro.linalg.tilematrix import TileMatrix


class GemmRecipe(NamedTuple):
    """The tasks of ``C += A @ B`` labelled ``<name>[i,j,k]``
    (:mod:`repro.linalg.numeric`).

    The update of a task with ``k < n_single`` into a double C is computed
    in float32 and accumulated in the stored double tile, the mixed-GEMM
    kernel contract (:mod:`repro.linalg.mixed`).
    """

    a: TileMatrix
    b: TileMatrix
    c: TileMatrix
    n_single: int = 0

    def apply(self, task: Task) -> None:
        _, (i, j, k) = label_indices(task.label)
        c = self.c.tile(i, j)
        a = self.a.tile(i, k)
        b = self.b.tile(k, j)
        if k < self.n_single and c.dtype == np.float64:
            c += (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float64)
        else:
            c += a @ b


def check_geometry(a: TileMatrix, b: TileMatrix, c: TileMatrix) -> None:
    if not (a.nt == b.nt == c.nt and a.nb == b.nb == c.nb):
        raise ValueError("A, B, C must share tile geometry")


def build_gemm(
    graph: TaskGraph,
    a: TileMatrix,
    b: TileMatrix,
    c: TileMatrix,
    priority: int = 0,
) -> TaskGraph:
    """Append the tasks of ``C += A @ B`` to ``graph``."""
    check_geometry(a, b, c)
    if not (a.precision == b.precision == c.precision):
        raise ValueError("A, B, C must share precision")
    op = TileOp("gemm", a.nb, a.precision)
    return product_tasks(graph, a, b, c, [(op, "gemm")] * a.nt, priority,
                         GemmRecipe(a, b, c))


def product_tasks(
    graph: TaskGraph,
    a: TileMatrix,
    b: TileMatrix,
    c: TileMatrix,
    kinds: Sequence[tuple[TileOp, str]],
    priority: int,
    recipe: GemmRecipe,
) -> TaskGraph:
    """Append ``gemm[i,j,k]`` for every tile triple, in ``i, j, k`` order.

    ``kinds[k]`` is the op and the label's name of the updates at ``k``.
    """
    nt = a.nt
    R, RW = AccessMode.R, AccessMode.RW
    if c is a or c is b or any(
        map(graph.knows, chain(a.handles(), b.handles(), c.handles()))
    ):
        # C aliases an input, or earlier tasks touch these tiles: only
        # inference sees those edges.
        def submit(op, accesses, deps, priority, label, recipe):
            return graph.add_task(op, accesses, priority, label, recipe)
    else:
        submit = graph.emit
    # One access pair per tile of each operand, shared by every task that
    # touches it.  Local pair rows are filled at the tasks that first touch
    # each tile, so handles are created in the same order as one lookup
    # per access: row i of A during j == 0, column j of B during i == 0.
    b_cols: list[list] = [[] for _ in range(nt)]
    for i in range(nt):
        a_row: list = []
        for j in range(nt):
            cij = (c.handle(i, j), RW)
            b_col = b_cols[j]
            deps: tuple = ()  # the chain's last writer of C[i,j]
            for k in range(nt):
                if j == 0:
                    a_row.append((a.handle(i, k), R))
                if i == 0:
                    b_col.append((b.handle(k, j), R))
                op, name = kinds[k]
                deps = (submit(
                    op,
                    (cij, a_row[k], b_col[k]),
                    deps,
                    priority,
                    f"{name}[{i},{j},{k}]",
                    recipe,
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
