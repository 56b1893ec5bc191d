"""Tasks and the implicitly-built task graph.

StarPU's *sequential data consistency*: tasks are submitted in program order
and dependencies are inferred from data hazards —

- **RAW**: a reader depends on the last writer of each handle it reads;
- **WAW**: a writer depends on the last writer;
- **WAR**: a writer depends on every reader since the last write.

Edges therefore always point from earlier to later submissions, so the graph
is acyclic by construction.

Builders whose hazards are closed form in their tile indices (tiled POTRF
and GEMM) skip the inference: :meth:`TaskGraph.emit` appends a task with the
predecessors the builder read off its own tiles, and :meth:`TaskGraph.add_task`
stays the general path and the reference an emitted graph must equal.

A built graph is re-runnable after :meth:`TaskGraph.reset`, which puts its
tasks and handles back as they were built, so a run of the same operation on
another runtime can skip the build and its hazard inference.  What a run
derives from the structure (its validation, roots and flop total) is
computed once per graph and survives the reset.

A graph holds only what a run reads, plus one shared reference per task
for numeric verification: a builder passes every task of a build the same
immutable *recipe*, which derives the task's operand tiles from its label
(see :class:`Task` and :func:`label_indices`).  Builders also pass the same
``(handle, mode)`` tuple for every access of one tile in one mode.  No
task, handle or access refers back to a task that refers to it, so a
graph holds no reference cycle: refcounting alone frees it.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum
from typing import Optional, Sequence

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode, DataHandle
from repro.runtime.perfmodel import model_key


class TaskState(Enum):
    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"


def label_indices(label: str) -> tuple[str, list[int]]:
    """A builder's task label as its kernel name and its indices:
    ``"gemm[3,1,0]"`` -> ``("gemm", [3, 1, 0])``."""
    name, _, rest = label.partition("[")
    return name, [int(x) for x in re.findall(r"\d+", rest)]


class Task:
    """One schedulable tile task.

    ``recipe`` is shared by every task of one build and never read by a
    run: an object whose ``apply(task)`` performs the task's kernel on
    materialised tiles, found from the task's label.  ``None`` when the
    task has no numeric semantics.
    """

    __slots__ = (
        "tid",
        "op",
        "accesses",
        "priority",
        "label",
        "recipe",
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
        recipe: object = None,
    ) -> None:
        self.tid = tid
        self.op = op
        self.accesses = tuple(accesses)
        self.priority = priority
        self.label = label or f"{op.kind}#{tid}"
        self.recipe = recipe
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
    holder of the graph can tell whether a later run has reused it.  Task
    ids are positions: ``tasks[i].tid == i``.
    """

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self._tid = itertools.count()
        self._last_writer: dict[DataHandle, Task] = {}
        self._readers_since_write: dict[DataHandle, list[Task]] = {}
        #: The hazard state above covers ``tasks[:_n_hazard]``; emitted
        #: tasks are folded in by the next :meth:`add_task`.
        self._n_hazard = 0
        self.n_edges = 0
        self._handles: dict[int, DataHandle] = {}
        #: Each task's dependency count as built, in task order.
        self._built_deps: list[int] = []
        self.n_resets = 0
        # Derived from the structure, computed once and kept across
        # reset(); add_task and emit drop them.
        self._validated = False
        self._roots: Optional[list[Task]] = None
        self._flops: Optional[float] = None
        self._distinct_ops: Optional[tuple[TileOp, ...]] = None

    def add_task(
        self,
        op: TileOp,
        accesses: Sequence[tuple[DataHandle, AccessMode]],
        priority: int = 0,
        label: str = "",
        recipe: object = None,
    ) -> Task:
        """Submit a task; dependencies are inferred from data hazards."""
        task = Task(next(self._tid), op, accesses, priority, label, recipe)
        if self._n_hazard != task.tid:
            self._fold_hazards(self.tasks[self._n_hazard:])
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
        self._fold_hazards((task,))
        self.tasks.append(task)
        self._drop_derived()
        return task

    def emit(
        self,
        op: TileOp,
        accesses: Sequence[tuple[DataHandle, AccessMode]],
        deps: Sequence[Task],
        priority: int = 0,
        label: str = "",
        recipe: object = None,
    ) -> Task:
        """Append a task whose predecessors the caller already knows.

        ``deps`` must be exactly the distinct tasks :meth:`add_task` would
        infer for ``accesses``, in the order it would find them; a builder
        that reads them off its own tiles passes them here and skips the
        hazard inference.  The handles are registered as :meth:`add_task`
        registers them, and the hazard state catches up at the next
        :meth:`add_task`, so later submissions see the same hazards.
        """
        task = Task(next(self._tid), op, accesses, priority, label, recipe)
        handles = self._handles
        for handle, _ in task.accesses:
            handles[handle.hid] = handle
        for dep in deps:
            dep.successors.append(task)
        n = len(deps)
        task.deps_remaining = n
        self._built_deps.append(n)
        self.n_edges += n
        self.tasks.append(task)
        self._drop_derived()
        return task

    def _fold_hazards(self, tasks: Sequence[Task]) -> None:
        """Record ``tasks``' writes and reads as the latest per handle."""
        last_writer = self._last_writer
        readers_since_write = self._readers_since_write
        for task in tasks:
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
        if tasks:
            self._n_hazard = tasks[-1].tid + 1

    def _drop_derived(self) -> None:
        self._validated = False
        self._roots = self._flops = self._distinct_ops = None

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

    def knows(self, handle: DataHandle) -> bool:
        """Whether a task of this graph accesses ``handle``."""
        return handle.hid in self._handles

    def roots(self) -> list[Task]:
        """The tasks built with no dependency, in task order (computed once)."""
        roots = self._roots
        if roots is None:
            roots = self._roots = [
                t for t, deps in zip(self.tasks, self._built_deps) if not deps
            ]
        return roots

    def total_flops(self) -> float:
        flops = self._flops
        if flops is None:
            flops = self._flops = sum(t.op.flops for t in self.tasks)
        return flops

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

    # ------------------------------------------------------------- analysis

    @property
    def validated(self) -> bool:
        """Whether :meth:`validate` passed since the last task was added.

        A run changes no edge and :meth:`reset` restores the built
        dependency counts, so a runtime validates a graph the first time
        it runs it and trusts it afterwards.
        """
        return self._validated

    def validate(self) -> None:
        """Check structural sanity: every edge points forward, and each
        task's built dependency count, and its current one while it is
        CREATED, matches its incoming edges.  Always checks, and a pass
        sets :attr:`validated`."""
        tasks = self.tasks
        incoming = [0] * len(tasks)
        for t in tasks:
            tid = t.tid
            for s in t.successors:
                sid = s.tid
                if sid <= tid:
                    raise ValueError("edge does not respect submission order")
                incoming[sid] += 1
        created = TaskState.CREATED
        for t, n, built in zip(tasks, incoming, self._built_deps):
            if n != built or (t.state is created and n != t.deps_remaining):
                raise ValueError(f"dep count mismatch on {t.label}")
        self._validated = True

    def depth_priorities(self) -> None:
        """Assign each task's priority = longest path (in tasks) to a sink.

        This is the runtime-agnostic equivalent of Chameleon's expert-tuned
        priorities: tasks deep on the critical path sort first in ``dmdas``.
        """
        tasks = self.tasks
        depth = [0] * len(tasks)
        for t in reversed(tasks):
            # A plain loop: max() over a generator costs more than the
            # one to three successors a tile task has.
            d = 0
            for s in t.successors:
                ds = depth[s.tid]
                if ds > d:
                    d = ds
            depth[t.tid] = d = d + 1
            t.priority = d
