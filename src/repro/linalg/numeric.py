"""Numeric execution of task graphs on real NumPy tiles.

Running the tasks *in submission order* (a valid topological order by
construction) on materialised matrices and checking the result against a
NumPy reference proves the DAG builders encode the right algorithm — the
dependencies, access modes and kernel semantics all have to be correct for
the factorisation to come out right.

A task carries no operands of its own.  Every task of one build shares
one immutable *recipe* (:class:`~repro.linalg.potrf.PotrfRecipe`,
:class:`~repro.linalg.gemm.GemmRecipe`,
:class:`~repro.apps.stencil.StencilRecipe`) that holds the build's
matrices; its ``apply(task)`` reads the task's kernel and tile indices off
the label the builder gave it, so each label format is known only to the
module that writes it.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.graph import Task, TaskGraph
from repro.linalg.tilematrix import TileMatrix


class NumericError(RuntimeError):
    """Raised when a graph's numeric execution is impossible or wrong."""


def apply_task(task: Task) -> None:
    """Apply one task's kernel semantics to its NumPy tiles."""
    recipe = task.recipe
    if recipe is None:
        raise NumericError(f"task {task.label} carries no numeric recipe")
    recipe.apply(task)


def execute_numeric(graph: TaskGraph) -> None:
    """Run every task in submission order on the materialised tiles."""
    for task in graph.tasks:
        apply_task(task)


def execute_in_schedule_order(graph: TaskGraph) -> None:
    """Replay a graph *as the runtime actually scheduled it*.

    After a :meth:`RuntimeSystem.run`, every task carries its simulated
    ``start_time``; applying the kernels in that order on real NumPy tiles
    and verifying the result proves the engine's execution order respects
    sequential data consistency — a scheduler that violated a dependency
    would corrupt the factorisation.

    Ties (identical start times on different workers) are broken by worker
    name then submission id; tied tasks are guaranteed independent by the
    no-overlap-per-worker invariant, so any tie order is valid.
    """
    pending = [t for t in graph.tasks if t.start_time is None]
    if pending:
        raise NumericError(
            f"{len(pending)} tasks were never scheduled; run the graph first"
        )
    ordered = sorted(graph.tasks, key=lambda t: (t.start_time, t.worker_name, t.tid))
    for task in ordered:
        apply_task(task)


def extract_lower(a: TileMatrix) -> np.ndarray:
    """Lower-triangular factor from a factorised symmetric TileMatrix."""
    if a.array is None:
        raise NumericError("matrix not materialised")
    return np.tril(a.array)


def verify_potrf(a: TileMatrix, original: np.ndarray, rtol: float = 1e-5) -> float:
    """Relative reconstruction error ``||L L^T - A0|| / ||A0||``; raises if
    above ``rtol``."""
    lower = extract_lower(a)
    recon = lower @ lower.T
    err = float(np.linalg.norm(recon - original) / np.linalg.norm(original))
    if err > rtol:
        raise NumericError(f"POTRF reconstruction error {err:.2e} > {rtol:.2e}")
    return err


def verify_gemm(
    c: TileMatrix, a0: np.ndarray, b0: np.ndarray, c0: np.ndarray, rtol: float = 1e-5
) -> float:
    """Relative error of ``C`` against ``C0 + A0 @ B0``; raises if above."""
    if c.array is None:
        raise NumericError("matrix not materialised")
    ref = c0 + a0 @ b0
    err = float(np.linalg.norm(c.array - ref) / np.linalg.norm(ref))
    if err > rtol:
        raise NumericError(f"GEMM error {err:.2e} > {rtol:.2e}")
    return err
