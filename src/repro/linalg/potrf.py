"""Tiled Cholesky factorisation (right-looking, lower-triangular).

For an ``N x N`` tile matrix the DAG has the closed-form sizes the paper
quotes: ``N(N+1)(N+2)/6`` tasks in total, of which ``N(N-1)(N-2)/6`` are
GEMM updates, ``N`` are POTRF panel factorisations and ``N(N-1)/2`` each are
TRSM and SYRK.  The critical path runs through the POTRF/TRSM tasks — small,
divergent kernels the GPUs are bad at — which is why scheduling this DAG on
a heterogeneous node is the interesting case.
"""

from __future__ import annotations

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode
from repro.runtime.graph import TaskGraph
from repro.linalg.tilematrix import TileMatrix


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
    R, RW = AccessMode.R, AccessMode.RW
    # cols[j][i - j] is tile (i, j) of the lower triangle.  A column is
    # fetched whole at its first touch (column 0 at the first POTRF, column
    # n at the first SYRK on it), which creates its handles in exactly the
    # order the tasks below would first touch them one by one.
    cols: list = [None] * nt
    for k in range(nt):
        ck = cols[k]
        if ck is None:
            ck = cols[k] = [a.handle(i, k) for i in range(k, nt)]
        akk = ck[0]
        graph.add_task(
            op_potrf,
            [(akk, RW)],
            label=f"potrf[{k}]",
            payload={"kind": "potrf", "A": (a, k, k)},
        )
        for m in range(k + 1, nt):
            graph.add_task(
                op_trsm,
                [(akk, R), (ck[m - k], RW)],
                label=f"trsm[{m},{k}]",
                payload={"kind": "trsm", "L": (a, k, k), "A": (a, m, k)},
            )
        for n in range(k + 1, nt):
            cn = cols[n]
            if cn is None:
                cn = cols[n] = [a.handle(i, n) for i in range(n, nt)]
            ank = ck[n - k]
            graph.add_task(
                op_syrk,
                [(ank, R), (cn[0], RW)],
                label=f"syrk[{n},{k}]",
                payload={"kind": "syrk", "A": (a, n, k), "C": (a, n, n)},
            )
            for m in range(n + 1, nt):
                graph.add_task(
                    op_gemm,
                    [(cn[m - n], RW), (ck[m - k], R), (ank, R)],
                    label=f"gemm[{m},{n},{k}]",
                    payload={
                        "kind": "gemm",
                        "C": (a, m, n),
                        "A": (a, m, k),
                        "B": (a, n, k),
                        "alpha": -1.0,
                        "transb": True,
                    },
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
