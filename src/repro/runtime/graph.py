"""Tasks and the implicitly-built task graph.

StarPU's *sequential data consistency*: tasks are submitted in program order
and dependencies are inferred from data hazards —

- **RAW**: a reader depends on the last writer of each handle it reads;
- **WAW**: a writer depends on the last writer;
- **WAR**: a writer depends on every reader since the last write.

Edges therefore always point from earlier to later submissions, so the graph
is acyclic by construction.

A built graph is re-runnable after :meth:`TaskGraph.reset`, which puts its
tasks and handles back as they were built, so a run of the same operation on
another runtime can skip the build and its hazard inference.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Optional, Sequence

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode, DataHandle
from repro.runtime.perfmodel import model_key


class TaskState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"


class Task:
    """One schedulable tile task."""

    __slots__ = (
        "tid",
        "op",
        "accesses",
        "priority",
        "label",
        "payload",
        "state",
        "deps_remaining",
        "successors",
        "worker_name",
        "start_time",
        "end_time",
    )

    def __init__(
        self,
        tid: int,
        op: TileOp,
        accesses: Sequence[tuple[DataHandle, AccessMode]],
        priority: int = 0,
        label: str = "",
        payload: Optional[dict] = None,
    ) -> None:
        self.tid = tid
        self.op = op
        self.accesses = tuple(accesses)
        self.priority = priority
        self.label = label or f"{op.kind}#{tid}"
        self.payload = payload or {}
        self.state = TaskState.CREATED
        self.deps_remaining = 0
        self.successors: list[Task] = []
        self.worker_name: Optional[str] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

    def reads(self) -> list[DataHandle]:
        return [h for h, m in self.accesses if m.reads]

    def writes(self) -> list[DataHandle]:
        return [h for h, m in self.accesses if m.writes]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Task {self.label} prio={self.priority} deps={self.deps_remaining}>"


class TaskGraph:
    """A DAG of tasks built by sequential submission with hazard inference.

    Re-runnable after :meth:`reset`; ``n_resets`` counts the resets, so a
    holder of the graph can tell whether a later run has reused it.
    """

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self._tid = itertools.count()
        self._last_writer: dict[DataHandle, Task] = {}
        self._readers_since_write: dict[DataHandle, list[Task]] = {}
        self.n_edges = 0
        self._handles: dict[int, DataHandle] = {}
        #: Each task's dependency count as built, in task order.
        self._built_deps: list[int] = []
        self.n_resets = 0
        #: :meth:`distinct_ops`, once computed; cleared by :meth:`add_task`.
        self._distinct_ops: Optional[tuple[TileOp, ...]] = None

    def add_task(
        self,
        op: TileOp,
        accesses: Sequence[tuple[DataHandle, AccessMode]],
        priority: int = 0,
        label: str = "",
        payload: Optional[dict] = None,
    ) -> Task:
        """Submit a task; dependencies are inferred from data hazards."""
        task = Task(next(self._tid), op, accesses, priority, label, payload)
        handles = self._handles
        last_writer = self._last_writer
        readers_since_write = self._readers_since_write
        # Distinct predecessors in first-seen order (tasks hash by identity).
        deps: dict[Task, None] = {}
        for handle, mode in task.accesses:
            handles[handle.hid] = handle
            readers = readers_since_write.get(handle)
            if mode.writes and readers:
                # WAR edges; RAW/WAW edges to the last writer are implied
                # transitively through these readers.
                for reader in readers:
                    deps[reader] = None
            else:
                writer = last_writer.get(handle)
                if writer is not None:
                    deps[writer] = None  # RAW and/or WAW
        for dep in deps:
            dep.successors.append(task)
        task.deps_remaining = len(deps)
        self._built_deps.append(len(deps))
        self.n_edges += len(deps)
        # A second pass: the hazards above must see the state from before
        # this task, even when it accesses one handle twice.
        for handle, mode in task.accesses:
            if mode.writes:
                last_writer[handle] = task
                readers_since_write[handle] = []
            elif mode.reads:
                readers = readers_since_write.get(handle)
                if readers is None:
                    readers_since_write[handle] = [task]
                else:
                    readers.append(task)
        self.tasks.append(task)
        self._distinct_ops = None
        return task

    def reset(self) -> None:
        """Put the graph back as built, ready for a run on a new runtime.

        Every task returns to CREATED with the dependency count it was
        built with and no worker, start or end time; every handle is valid
        only on its home node, and clean.  Priorities, edges and accesses
        are never changed by a run, so they stay.  A runtime that already
        ran the graph still holds its handles in its memory managers, so
        only a different runtime may run the reset graph.
        """
        created = TaskState.CREATED
        for task, deps in zip(self.tasks, self._built_deps):
            task.state = created
            task.deps_remaining = deps
            task.worker_name = None
            task.start_time = None
            task.end_time = None
        for handle in self._handles.values():
            handle.valid = 1 << handle.home_node
            handle.dirty = False
        self.n_resets += 1

    # ----------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def handles(self) -> list[DataHandle]:
        return list(self._handles.values())

    def roots(self) -> list[Task]:
        return [t for t in self.tasks if t.deps_remaining == 0]

    def total_flops(self) -> float:
        return sum(t.op.flops for t in self.tasks)

    def distinct_ops(self) -> tuple[TileOp, ...]:
        """One op per performance-model key, in first-occurrence order.

        Computed once per graph (a run never changes the tasks' ops, so it
        survives :meth:`reset`); calibration walks it once per run.
        """
        ops = self._distinct_ops
        if ops is None:
            ops = self._distinct_ops = tuple(
                {model_key(t.op): t.op for t in self.tasks}.values()
            )
        return ops

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for t in self.tasks:
            out[t.op.kind] = out.get(t.op.kind, 0) + 1
        return out

    # ------------------------------------------------------------- analysis

    def validate(self) -> None:
        """Check structural sanity (dep counts match incoming edges)."""
        incoming = {t.tid: 0 for t in self.tasks}
        for t in self.tasks:
            for s in t.successors:
                if s.tid <= t.tid:
                    raise ValueError("edge does not respect submission order")
                incoming[s.tid] += 1
        for t in self.tasks:
            if t.state is TaskState.CREATED and incoming[t.tid] != t.deps_remaining:
                raise ValueError(f"dep count mismatch on {t.label}")

    def critical_path(
        self, weight: Optional[Callable[[Task], float]] = None
    ) -> tuple[float, list[Task]]:
        """Longest path through the DAG.

        ``weight`` defaults to 1 per task (path length in tasks).  Returns
        ``(length, path)``.
        """
        if weight is None:
            weight = lambda t: 1.0  # noqa: E731
        best: dict[int, float] = {}
        best_succ: dict[int, Optional[Task]] = {}
        # Reverse submission order is a reverse topological order.
        for t in reversed(self.tasks):
            w = weight(t)
            if t.successors:
                nxt = max(t.successors, key=lambda s: best[s.tid])
                best[t.tid] = w + best[nxt.tid]
                best_succ[t.tid] = nxt
            else:
                best[t.tid] = w
                best_succ[t.tid] = None
        if not self.tasks:
            return 0.0, []
        start = max(self.tasks, key=lambda t: best[t.tid])
        path = [start]
        while best_succ[path[-1].tid] is not None:
            path.append(best_succ[path[-1].tid])
        return best[start.tid], path

    def depth_priorities(self) -> None:
        """Assign each task's priority = longest path (in tasks) to a sink.

        This is the runtime-agnostic equivalent of Chameleon's expert-tuned
        priorities: tasks deep on the critical path sort first in ``dmdas``.
        """
        depth: dict[int, int] = {}
        for t in reversed(self.tasks):
            # A plain loop: max() over a generator costs more than the
            # one to three successors a tile task has.
            d = 0
            for s in t.successors:
                ds = depth[s.tid]
                if ds > d:
                    d = ds
            depth[t.tid] = d + 1
        for t in self.tasks:
            t.priority = depth[t.tid]
