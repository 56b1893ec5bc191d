"""Tiled Cholesky factorisation (right-looking, lower-triangular).

For an ``N x N`` tile matrix the DAG has the closed-form sizes the paper
quotes: ``N(N+1)(N+2)/6`` tasks in total, of which ``N(N-1)(N-2)/6`` are
GEMM updates, ``N`` are POTRF panel factorisations and ``N(N-1)/2`` each are
TRSM and SYRK.  The critical path runs through the POTRF/TRSM tasks — small,
divergent kernels the GPUs are bad at — which is why scheduling this DAG on
a heterogeneous node is the interesting case.

The edges are closed form too.  No task of this DAG writes a tile that a
task has read since its last write, so there are no WAR edges, and each
task depends on the last writer of each tile it touches, read off a
per-tile table:

- ``potrf[k]`` on ``syrk[k,k-1]``;
- ``trsm[m,k]`` on ``potrf[k]`` and ``gemm[m,k,k-1]``;
- ``syrk[n,k]`` on ``trsm[n,k]`` and ``syrk[n,k-1]``;
- ``gemm[m,n,k]`` on ``gemm[m,n,k-1]``, ``trsm[m,k]`` and ``trsm[n,k]``

(no ``k-1`` term at ``k = 0``).  :func:`build_potrf` emits the tasks with
those edges (:meth:`~repro.runtime.graph.TaskGraph.emit`) when no tile of
the matrix is known to the graph yet.  Otherwise it submits them through
:meth:`~repro.runtime.graph.TaskGraph.add_task`, whose hazard inference
stays the reference: an emitted graph equals the inferred one field for
field.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode
from repro.runtime.graph import Task, TaskGraph, label_indices
from repro.linalg.tilematrix import TileMatrix


class PotrfRecipe(NamedTuple):
    """The tasks of :func:`build_potrf` over ``a``, labelled ``potrf[k]``,
    ``trsm[m,k]``, ``syrk[n,k]`` and ``gemm[m,n,k]``
    (:mod:`repro.linalg.numeric`)."""

    a: TileMatrix

    def apply(self, task: Task) -> None:
        kind, idx = label_indices(task.label)
        tile = self.a.tile
        if kind == "potrf":
            (k,) = idx
            akk = tile(k, k)
            akk[:] = np.linalg.cholesky(akk)
        elif kind == "trsm":
            import scipy.linalg  # only numeric verification needs scipy

            m, k = idx
            amk = tile(m, k)
            # A <- A * L^{-T}  (right solve against the transposed panel factor)
            amk[:] = scipy.linalg.solve_triangular(tile(k, k), amk.T, lower=True).T
        elif kind == "syrk":
            n, k = idx
            ank = tile(n, k)
            cnn = tile(n, n)
            cnn -= ank @ ank.T
        elif kind == "gemm":
            m, n, k = idx
            cmn = tile(m, n)
            cmn -= tile(m, k) @ tile(n, k).T
        else:
            from repro.linalg.numeric import NumericError

            raise NumericError(f"{task.label} is not a POTRF task")


def build_potrf(graph: TaskGraph, a: TileMatrix) -> TaskGraph:
    """Append the tasks of a lower Cholesky factorisation of ``a``."""
    if not a.symmetric:
        raise ValueError("POTRF needs a symmetric (lower-stored) TileMatrix")
    nt = a.nt
    nb = a.nb
    prec = a.precision
    op_potrf = TileOp("potrf", nb, prec)
    op_trsm = TileOp("trsm", nb, prec)
    op_syrk = TileOp("syrk", nb, prec)
    op_gemm = TileOp("gemm", nb, prec)
    recipe = PotrfRecipe(a)
    R, RW = AccessMode.R, AccessMode.RW
    if any(map(graph.knows, a.handles())):
        # Earlier tasks touch these tiles: only inference sees their edges.
        def submit(op, accesses, deps, priority, label, recipe):
            return graph.add_task(op, accesses, priority, label, recipe)
    else:
        submit = graph.emit
    # reads[j][i - j] and updates[j][i - j] are the (handle, R) and
    # (handle, RW) access pairs of tile (i, j) of the lower triangle, one
    # of each per tile, shared by every task that touches it;
    # writers[j][i - j] is the tile's last writer so far.  A column is
    # fetched whole at its first touch (column 0 at the first POTRF,
    # column n at the first SYRK on it), which creates its handles in
    # exactly the order the tasks below would first touch them one by one.
    reads: list = [None] * nt
    updates: list = [None] * nt
    writers: list = [None] * nt

    def fetch(j: int) -> None:
        col = [a.handle(i, j) for i in range(j, nt)]
        reads[j] = [(h, R) for h in col]
        updates[j] = [(h, RW) for h in col]
        writers[j] = [None] * (nt - j)

    for k in range(nt):
        if writers[k] is None:
            fetch(k)
        rk = reads[k]
        uk = updates[k]
        wk = writers[k]
        akk = rk[0]
        prev = wk[0]
        panel = wk[0] = submit(
            op_potrf,
            (uk[0],),
            () if prev is None else (prev,),
            0,
            f"potrf[{k}]",
            recipe,
        )
        for m in range(k + 1, nt):
            prev = wk[m - k]
            wk[m - k] = submit(
                op_trsm,
                (akk, uk[m - k]),
                (panel,) if prev is None else (panel, prev),
                0,
                f"trsm[{m},{k}]",
                recipe,
            )
        for n in range(k + 1, nt):
            if writers[n] is None:
                fetch(n)
            un = updates[n]
            wn = writers[n]
            ank = rk[n - k]
            trsm_n = wk[n - k]
            prev = wn[0]
            wn[0] = submit(
                op_syrk,
                (ank, un[0]),
                (trsm_n,) if prev is None else (trsm_n, prev),
                0,
                f"syrk[{n},{k}]",
                recipe,
            )
            for m in range(n + 1, nt):
                prev = wn[m - n]
                wn[m - n] = submit(
                    op_gemm,
                    (un[m - n], rk[m - k], ank),
                    (wk[m - k], trsm_n) if prev is None
                    else (prev, wk[m - k], trsm_n),
                    0,
                    f"gemm[{m},{n},{k}]",
                    recipe,
                )
    return graph


def potrf_graph(n: int, nb: int, precision: str) -> tuple[TaskGraph, TileMatrix]:
    """Convenience: fresh symmetric matrix + its Cholesky graph."""
    a = TileMatrix(n, nb, precision, label="A", symmetric=True)
    graph = TaskGraph()
    build_potrf(graph, a)
    return graph, a


def potrf_task_counts(nt: int) -> dict[str, int]:
    """Closed-form task counts for an ``nt x nt`` tile Cholesky."""
    return {
        "potrf": nt,
        "trsm": nt * (nt - 1) // 2,
        "syrk": nt * (nt - 1) // 2,
        "gemm": nt * (nt - 1) * (nt - 2) // 6,
        "total": nt * (nt + 1) * (nt + 2) // 6,
    }
