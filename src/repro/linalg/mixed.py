"""EXTENSION: mixed-precision tiled GEMM (paper future work).

The paper's conclusion proposes "mixed precision computations as a
complementary way to find the best tradeoff between raw performance and
energy consumption".  This module builds a tiled GEMM whose accumulation
chain computes a chosen fraction of the k-updates in single precision:
single-precision tile kernels are faster and draw less power (Fig. 4), at
the cost of accumulating rounding error the numeric mode quantifies.

The ``by_k`` rule demotes the *first* ``round(fraction * nt)`` k-indices of
every C tile to single precision — deterministic, uniform across tiles, and
leaves the final updates in double so the last writes re-absorb some error.
The tasks and edges are tiled GEMM's (:func:`repro.linalg.gemm.product_tasks`);
only each k's op and label differ.
"""

from __future__ import annotations

from repro.kernels.tile_kernels import TileOp
from repro.runtime.graph import TaskGraph
from repro.linalg.gemm import GemmRecipe, check_geometry, product_tasks
from repro.linalg.tilematrix import TileMatrix


def build_gemm_mixed(
    graph: TaskGraph,
    a: TileMatrix,
    b: TileMatrix,
    c: TileMatrix,
    single_fraction: float = 0.5,
) -> TaskGraph:
    """``C += A @ B`` with a fraction of k-updates in single precision.

    Matrices are stored in the precision of ``c`` (double expected); demoted
    tasks (labelled ``gemms``, the others ``gemmd``) cast on the fly, as
    mixed-precision BLAS kernels do.
    """
    if not 0.0 <= single_fraction <= 1.0:
        raise ValueError("single_fraction must be within [0, 1]")
    check_geometry(a, b, c)
    nt = a.nt
    n_single = round(single_fraction * nt)
    single = (TileOp("gemm", a.nb, "single"), "gemms")
    double = (TileOp("gemm", a.nb, "double"), "gemmd")
    kinds = [single if k < n_single else double for k in range(nt)]
    return product_tasks(graph, a, b, c, kinds, 0, GemmRecipe(a, b, c, n_single))


def gemm_mixed_graph(
    n: int, nb: int, single_fraction: float
) -> tuple[TaskGraph, TileMatrix, TileMatrix, TileMatrix]:
    a = TileMatrix(n, nb, "double", label="A")
    b = TileMatrix(n, nb, "double", label="B")
    c = TileMatrix(n, nb, "double", label="C")
    graph = TaskGraph()
    build_gemm_mixed(graph, a, b, c, single_fraction)
    return graph, a, b, c


def expected_single_tasks(nt: int, single_fraction: float) -> int:
    return nt * nt * round(single_fraction * nt)
