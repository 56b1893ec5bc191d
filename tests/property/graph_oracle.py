"""Test-only oracle: the task-graph builder before its single-pass rewrite.

This is :meth:`repro.runtime.graph.TaskGraph.add_task` as it was when
dependencies were collected in a dict keyed by task id, with a per-dependency
counter update and ``setdefault`` for the reader lists.  It is kept,
unoptimised, so that property tests can run the same random access programs
through it and through :mod:`repro.runtime.graph` and demand the same task
ids, successor lists, dependency counts, edge counts and handle order.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.kernels.tile_kernels import TileOp
from repro.runtime.data import AccessMode, DataHandle
from repro.runtime.graph import Task


class OracleTaskGraph:
    """Sequential submission with RAW/WAW/WAR hazard inference."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self._tid = itertools.count()
        self._last_writer: dict[DataHandle, Task] = {}
        self._readers_since_write: dict[DataHandle, list[Task]] = {}
        self.n_edges = 0
        self._handles: dict[int, DataHandle] = {}

    def add_task(
        self,
        op: TileOp,
        accesses: Sequence[tuple[DataHandle, AccessMode]],
        priority: int = 0,
        label: str = "",
        payload: Optional[dict] = None,
    ) -> Task:
        task = Task(next(self._tid), op, accesses, priority, label, payload)
        deps: dict[int, Task] = {}
        for handle, mode in task.accesses:
            self._handles[handle.hid] = handle
            writer = self._last_writer.get(handle)
            readers = self._readers_since_write.get(handle, ())
            if mode.writes and readers:
                for reader in readers:
                    deps[reader.tid] = reader
            elif writer is not None:
                deps[writer.tid] = writer
        for dep in deps.values():
            dep.successors.append(task)
            task.deps_remaining += 1
            self.n_edges += 1
        for handle, mode in task.accesses:
            if mode.writes:
                self._last_writer[handle] = task
                self._readers_since_write[handle] = []
            elif mode.reads:
                self._readers_since_write.setdefault(handle, []).append(task)
        self.tasks.append(task)
        return task

    @property
    def handles(self) -> list[DataHandle]:
        return list(self._handles.values())
