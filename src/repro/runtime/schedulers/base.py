"""Scheduler interface.

The engine calls :meth:`push_ready` when a task's dependencies are satisfied
and :meth:`pop` when a worker goes idle.  Schedulers never execute anything;
they only decide placement and ordering.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from repro.runtime.data import DataManager
from repro.runtime.graph import Task
from repro.runtime.perfmodel import PerfModelSet
from repro.runtime.worker import WorkerType


class Scheduler(ABC):
    """Base class for all scheduling policies."""

    #: Whether the policy consults calibrated performance models.
    uses_perfmodel = False

    #: Whether :meth:`push_ready` binds each task to one worker at push time
    #: (and returns that worker).  The engine uses this for targeted
    #: dispatch: after a completion it only re-examines the freed worker and
    #: the workers that just received pushes, instead of scanning the whole
    #: worker list.  Shared-queue policies leave this False.
    binds_tasks = False

    #: Observability hook: a :class:`repro.obs.decisions.DecisionLog` (or any
    #: object with an ``append(record)`` method).  ``None`` — the default —
    #: disables decision logging entirely; model-based schedulers must not
    #: build candidate records unless a log is attached, so the hot path
    #: pays at most one ``is None`` check per decision when disabled.
    decision_log = None

    def __init__(
        self,
        workers: Sequence[WorkerType],
        perf: PerfModelSet,
        data: DataManager,
        rng: np.random.Generator,
    ) -> None:
        if not workers:
            raise ValueError("scheduler needs at least one worker")
        self.workers = list(workers)
        #: Worker position by name: the index into ``self.workers`` (and
        #: into every position-indexed state a policy keeps, e.g. the dm
        #: backlog list).
        self._pos = {w.name: i for i, w in enumerate(self.workers)}
        self.perf = perf
        self.data = data
        self.rng = rng
        self.n_pushed = 0
        self.n_popped = 0
        #: Workers removed from placement (dead/quarantined).  Kept as a
        #: set of names; the placement classes are rebuilt on each change,
        #: so the per-push hot path never consults it.
        self._excluded: set[str] = set()
        self._rebuild_placement_classes()

    def placement_class_key(self, worker: WorkerType):
        """Equivalence key for placement: workers sharing it are
        interchangeable up to their backlog (same duration estimates, same
        data-transfer penalty, same energy model)."""
        return (worker.arch, getattr(worker, "mem_node", None))

    def placement_class_label(self, worker: WorkerType) -> str:
        """Human-readable name of a worker's placement class (decision log)."""
        return f"{worker.arch}@m{getattr(worker, 'mem_node', '?')}"

    def _rebuild_placement_classes(self) -> None:
        """Group workers by :meth:`placement_class_key` into one flat record
        per class, in worker order both across and within classes.

        Each record is ``(w0, is_gpu, arch, mem_node, slot, index, members,
        get_members)``: the class's first worker and the three fields
        placement reads from it; ``slot``, the arch's index into the perf
        model's estimate rows (:meth:`PerfModelSet.arch_slot`; ``None``
        for a policy that reads no model); ``index``, the first worker's
        position in ``self.workers`` (tie-breaks match a brute-force
        scan); ``members``, the ``(index, worker)`` pairs; and
        ``get_members``, an :func:`operator.itemgetter` that picks the
        class's entries, in member order, out of any
        worker-position-indexed sequence (e.g. the dm backlog list), or
        ``None`` for a singleton class.  Members need
        not be consecutive: exclusions can punch holes in a class.
        Excluded (quarantined) workers are left out entirely.
        """
        classes: dict = {}
        for index, worker in enumerate(self.workers):
            if worker.name in self._excluded:
                continue
            classes.setdefault(self.placement_class_key(worker), []).append(
                (index, worker)
            )
        records = []
        #: The perf model whose rows the slots index (see the dm class scan).
        self._slots_perf = self.perf if self.uses_perfmodel else None
        arch_slot = self.perf.arch_slot if self.uses_perfmodel else None
        for members in classes.values():
            index, w0 = members[0]
            get_members = (
                itemgetter(*(i for i, _ in members)) if len(members) > 1 else None
            )
            records.append((
                w0, w0.is_gpu, w0.arch, getattr(w0, "mem_node", None),
                arch_slot(w0.arch) if arch_slot else None,
                index, members, get_members,
            ))
        self._placement_records = records
        #: The decision log's side table (see :meth:`_placement_log_table`),
        #: rebuilt on first use after every change to the classes.
        self._placement_log: Optional[dict] = None
        #: Distinct memory nodes across the placement classes, in class
        #: order — the targets a data-aware policy must price per decision.
        seen: dict = {}
        for record in records:
            if record[3] is not None:
                seen[record[3]] = True
        self._placement_mem_nodes = tuple(seen)

    def _placement_log_table(self) -> dict:
        """The constants every logged decision repeats, per placement class.

        Maps each record's ``index`` to the class label and its members'
        names and indices.  Only the logging branch of a scan reads it, so
        it is built at the first logged decision after
        :meth:`_rebuild_placement_classes`, and a scheduler that logs
        nothing never pays for it.
        """
        table = self._placement_log = {
            index: (
                self.placement_class_label(w0),
                tuple(w.name for _, w in members),
                tuple(i for i, _ in members),
            )
            for w0, _, _, _, _, index, members, _ in self._placement_records
        }
        return table

    # -------------------------------------------------------- fault recovery

    def exclude_worker(self, worker: WorkerType) -> list[Task]:
        """Remove a worker from placement (death/quarantine).

        Returns the tasks that were queued on it, in the order the policy
        would have served them, so the caller can re-submit them to the
        surviving workers.  Policies with shared queues return ``[]``.
        """
        self._excluded.add(worker.name)
        self._rebuild_placement_classes()
        return self._drain_queue(worker)

    def readmit_worker(self, worker: WorkerType) -> None:
        """Put a previously excluded worker back into placement."""
        self._excluded.discard(worker.name)
        self._rebuild_placement_classes()

    def _drain_queue(self, worker: WorkerType) -> list[Task]:
        """Empty the worker's private queue; default for shared queues."""
        return []

    @abstractmethod
    def push_ready(self, task: Task, now: float) -> Optional[WorkerType]:
        """A task became ready; decide where it queues.

        Policies with :attr:`binds_tasks` return the worker the task was
        bound to (targeted dispatch); shared-queue policies return ``None``.
        """

    @abstractmethod
    def pop(self, worker: WorkerType, now: float) -> Optional[Task]:
        """An idle worker requests work; return a task or ``None``."""

    def task_started(self, task: Task, worker: WorkerType, now: float) -> None:
        """Hook for a task that began on ``worker``.

        No policy overrides it, so the engine no longer calls it; it stays
        defined because the perf benchmark's tracer wraps it by name.
        """

    def task_finished(self, task: Task, worker: WorkerType, now: float) -> None:
        """Hook: ``task`` completed on ``worker``."""

    @abstractmethod
    def has_pending(self) -> bool:
        """True while any queued (not yet popped) task remains."""

    def has_work_for(self, worker: WorkerType) -> bool:
        """Whether :meth:`pop` could return a task for this worker right now.

        Used by the engine to skip pop attempts that are guaranteed to
        return ``None``.  May overestimate (a pop may still come back
        empty) but must never underestimate.
        """
        return self.has_pending()

    def peek(self, worker: WorkerType) -> Optional[Task]:
        """Next task this worker would pop, if the policy binds tasks to
        workers (used by the engine for data prefetch).  ``None`` for
        shared-queue policies."""
        return None

    def peek_many(self, worker: WorkerType, depth: int) -> list[Task]:
        """Up to ``depth`` upcoming tasks on this worker's queue (prefetch)."""
        head = self.peek(worker)
        return [head] if head is not None else []

    def estimate(self, task: Task, worker: WorkerType) -> float:
        """Calibrated duration estimate of ``task`` on ``worker``."""
        return self.perf.estimate(task.op, worker.arch)

    def eligible(self, task: Task) -> list[WorkerType]:
        """Non-excluded workers holding an implementation of the kernel."""
        out = [
            w for w in self.workers
            if w.can_run(task.op) and w.name not in self._excluded
        ]
        if not out:
            raise RuntimeError(f"no worker can run {task.op.kind!r}")
        return out

    def has_eligible(self, task: Task) -> bool:
        """Whether any non-excluded worker could run the task right now.

        Unlike :meth:`eligible` this never raises; fault recovery uses it to
        decide between re-submission and parking the task until a worker is
        re-admitted.
        """
        return any(
            w.can_run(task.op) and w.name not in self._excluded
            for w in self.workers
        )
