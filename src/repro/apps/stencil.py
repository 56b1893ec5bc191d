"""Tiled iterative Jacobi stencil (2D heat diffusion).

Each iteration writes a fresh grid from the previous one:

    next[x, y] = (cur[x, y] + cur[x-1, y] + cur[x+1, y]
                  + cur[x, y-1] + cur[x, y+1]) / 5

with Dirichlet (zero) boundaries.  The grid is split into ``nb x nb`` tiles;
the task updating tile ``(i, j)`` reads its own tile and the four
neighbouring tiles of the *current* grid and writes the tile of the *next*
grid.  Two grids double-buffer across iterations, so the implicit-dependency
engine derives the classic stencil wavefront: an iteration's tile can start
as soon as its five input tiles of the previous iteration are done — no
global barrier.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode
from repro.runtime.graph import Task, TaskGraph, label_indices
from repro.linalg.tilematrix import TileMatrix


class StencilRecipe(NamedTuple):
    """The tile updates ``jacobi[it](i,j)`` of :func:`stencil_graph`:
    iteration ``it`` reads ``grids[it % 2]`` and writes the other grid."""

    grids: tuple[TileMatrix, TileMatrix]

    def apply(self, task: Task) -> None:
        _, (it, i, j) = label_indices(task.label)
        cur, nxt = self.grids[it % 2], self.grids[1 - it % 2]
        nb = cur.nb
        padded = np.pad(cur.array, 1)  # zero Dirichlet boundary
        x0, y0 = i * nb + 1, j * nb + 1
        block = padded[x0 : x0 + nb, y0 : y0 + nb]
        up = padded[x0 - 1 : x0 - 1 + nb, y0 : y0 + nb]
        down = padded[x0 + 1 : x0 + 1 + nb, y0 : y0 + nb]
        left = padded[x0 : x0 + nb, y0 - 1 : y0 - 1 + nb]
        right = padded[x0 : x0 + nb, y0 + 1 : y0 + 1 + nb]
        nxt.tile(i, j)[:] = (block + up + down + left + right) / 5.0


def stencil_graph(
    n: int,
    nb: int,
    iterations: int,
    precision: str = "double",
) -> tuple[TaskGraph, TileMatrix, TileMatrix]:
    """Build ``iterations`` Jacobi sweeps over an ``n x n`` grid.

    Returns ``(graph, grid_a, grid_b)``; the final state lives in ``grid_a``
    for even iteration counts, ``grid_b`` for odd.
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    grid_a = TileMatrix(n, nb, precision, label="U0")
    grid_b = TileMatrix(n, nb, precision, label="U1")
    graph = TaskGraph()
    op = TileOp("stencil", nb, precision)
    recipe = StencilRecipe((grid_a, grid_b))
    nt = grid_a.nt
    # One access pair per tile and mode, shared by every task that uses it.
    pairs: dict = {}

    def access(m: TileMatrix, i: int, j: int, mode: AccessMode) -> tuple:
        pair = (m.handle(i, j), mode)
        return pairs.setdefault(pair, pair)

    cur, nxt = grid_a, grid_b
    for it in range(iterations):
        for i in range(nt):
            for j in range(nt):
                accesses = [access(nxt, i, j, AccessMode.W), access(cur, i, j, AccessMode.R)]
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < nt and 0 <= nj < nt:
                        accesses.append(access(cur, ni, nj, AccessMode.R))
                graph.add_task(op, accesses, label=f"jacobi[{it}]({i},{j})",
                               recipe=recipe)
        cur, nxt = nxt, cur
    return graph, grid_a, grid_b


def stencil_task_count(nt: int, iterations: int) -> int:
    return nt * nt * iterations


def reference_jacobi(grid: np.ndarray, iterations: int) -> np.ndarray:
    """Whole-grid NumPy reference for verification."""
    cur = np.asarray(grid, dtype=float).copy()
    for _ in range(iterations):
        padded = np.pad(cur, 1)
        cur = (
            padded[1:-1, 1:-1]
            + padded[:-2, 1:-1]
            + padded[2:, 1:-1]
            + padded[1:-1, :-2]
            + padded[1:-1, 2:]
        ) / 5.0
    return cur


def verify_stencil(
    final: TileMatrix, initial: np.ndarray, iterations: int, rtol: float = 1e-12
) -> float:
    """Relative error of the tiled result vs the whole-grid reference."""
    ref = reference_jacobi(initial, iterations)
    err = float(np.linalg.norm(final.array - ref) / (np.linalg.norm(ref) or 1.0))
    if err > rtol:
        raise ValueError(f"stencil error {err:.2e} > {rtol:.2e}")
    return err
