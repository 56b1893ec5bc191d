"""Test-only statistics of a built task graph: counts, critical path and
shared accesses."""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.graph import Task, TaskGraph


def counts_by_kind(graph: TaskGraph) -> dict[str, int]:
    """Number of tasks of each tile-op kind."""
    out: dict[str, int] = {}
    for t in graph.tasks:
        out[t.op.kind] = out.get(t.op.kind, 0) + 1
    return out


def unshared_accesses(graph: TaskGraph) -> int:
    """Accesses whose ``(handle, mode)`` tuple is not the first tuple of
    that pair in task order: 0 when each pair is one shared object."""
    first: dict = {}
    return sum(
        first.setdefault(pair, pair) is not pair
        for t in graph.tasks
        for pair in t.accesses
    )


def critical_path(
    graph: TaskGraph, weight: Optional[Callable[[Task], float]] = None
) -> tuple[float, list[Task]]:
    """Longest path through the DAG: ``(length, path)``.

    ``weight`` defaults to 1 per task (path length in tasks).
    """
    if weight is None:
        weight = lambda t: 1.0  # noqa: E731
    best: dict[int, float] = {}
    best_succ: dict[int, Optional[Task]] = {}
    # Reverse submission order is a reverse topological order.
    for t in reversed(graph.tasks):
        w = weight(t)
        if t.successors:
            nxt = max(t.successors, key=lambda s: best[s.tid])
            best[t.tid] = w + best[nxt.tid]
            best_succ[t.tid] = nxt
        else:
            best[t.tid] = w
            best_succ[t.tid] = None
    if not graph.tasks:
        return 0.0, []
    start = max(graph.tasks, key=lambda t: best[t.tid])
    path = [start]
    while best_succ[path[-1].tid] is not None:
        path.append(best_succ[path[-1].tid])
    return best[start.tid], path
