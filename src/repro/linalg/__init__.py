"""Chameleon-like tiled dense linear algebra (GEMM and POTRF, as in the paper).

A dense matrix is split into ``nb x nb`` tiles (:class:`TileMatrix`), and the
operations build task graphs over tile kernels:

- :func:`build_gemm` — tiled matrix multiplication ``C += A @ B``;
- :func:`build_potrf` — tiled Cholesky factorisation (right-looking,
  lower-triangular), producing POTRF/TRSM/SYRK/GEMM tasks with the closed-form
  task counts the paper quotes;
- :func:`build_gemm_mixed` — the mixed-precision GEMM extension: a fraction
  of the k-updates computed in single precision;
- :mod:`repro.linalg.numeric` — executes a graph on real NumPy tiles to
  verify the DAG computes the right answer;
- :mod:`repro.linalg.priorities` — critical-path priorities standing in for
  Chameleon's expert-tuned ones.
"""

from repro.linalg.gemm import build_gemm, gemm_graph
from repro.linalg.mixed import build_gemm_mixed, gemm_mixed_graph
from repro.linalg.potrf import build_potrf, potrf_graph, potrf_task_counts
from repro.linalg.priorities import assign_priorities
from repro.linalg.tilematrix import TileMatrix

__all__ = [
    "build_gemm",
    "gemm_graph",
    "build_gemm_mixed",
    "gemm_mixed_graph",
    "build_potrf",
    "potrf_graph",
    "potrf_task_counts",
    "assign_priorities",
    "TileMatrix",
]
