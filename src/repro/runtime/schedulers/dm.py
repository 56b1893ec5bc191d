"""dm (dequeue model / heft-tm): HEFT-like expected-completion-time placement.

At submission each ready task is assigned to the worker with the earliest
*expected completion time*:

    ECT(w) = now + backlog(w) + t_est(task, w)

where ``backlog(w)`` is the summed estimated duration of everything already
queued on (or running on) ``w``, and ``t_est`` comes from the calibrated
performance models.  Because those models are recalibrated after every cap
change, a power-capped GPU advertises longer estimates and automatically
receives fewer tasks — the adaptation mechanism at the centre of the paper.

Placement is evaluated per *equivalence class* of workers, not per worker:
two workers with the same ``(arch, mem_node)`` see identical duration
estimates and transfer penalties, so their costs differ only by backlog.
The expensive cost terms (:meth:`placement_terms`) are therefore computed
once per class; each member's cost is the class terms folded onto its
backlog, with the same left-to-right float adds a per-worker scan would
use, so the selection stays bit-identical to the brute-force path (kept
behind :attr:`brute_force_placement` for testing) while collapsing ~26
model/transfer evaluations per push to ~3 on the paper's platforms.

Most classes are not even folded.  Backlogs are never negative, so the
class's terms folded onto ``0.0`` are a floor under every member's cost
(a rounded add is monotone); an unlogged scan skips a class whose floor
is above the best cost so far.  CPU tile kernels are far slower than GPU
ones, so on the paper's platforms this skips nearly every CPU-package
fold.  A logged scan prunes the same way: the decision log keeps each
class's terms and a snapshot of the backlogs, and folds the member costs
only when it is read.  See ``docs/performance.md``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.obs.decisions import CandidateClass, DecisionRecord
from repro.runtime.graph import Task
from repro.runtime.schedulers.base import Scheduler
from repro.runtime.worker import WorkerType


class DMScheduler(Scheduler):
    name = "dm"
    uses_perfmodel = True
    binds_tasks = True

    #: Whether the class scan may compute the placement terms inline: the
    #: duration estimate, then the transfer term when the policy is
    #: :attr:`data_aware`.  Cleared automatically for a subclass that
    #: overrides :meth:`placement_terms` or :meth:`estimate` without
    #: re-declaring it, so such a subclass's terms always go through its
    #: override.
    _inline_terms = True

    #: Whether placement adds a transfer term (the dmda family).  The class
    #: scan then prices every candidate memory node in one
    #: ``DataManager.transfer_estimates`` walk per decision and hands the
    #: table to :meth:`placement_terms`.
    data_aware = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        overrides = "placement_terms" in cls.__dict__ or "estimate" in cls.__dict__
        if overrides and "_inline_terms" not in cls.__dict__:
            cls._inline_terms = False

    #: Debug flag: evaluate :meth:`placement_cost` for every eligible worker
    #: (the pre-optimization path) instead of once per equivalence class.
    #: The equivalence tests assert both paths produce identical schedules.
    brute_force_placement = False

    def __init__(self, workers, perf, data, rng) -> None:
        super().__init__(workers, perf, data, rng)
        self._queues: dict[str, deque[Task]] = {w.name: deque() for w in self.workers}
        #: Summed estimated seconds queued per worker, indexed by the
        #: worker's position in ``self.workers`` (see ``Scheduler._pos``).
        #: Never negative, which the class scan's floor relies on: a push
        #: adds a duration estimate, :meth:`task_finished` clamps at 0.0
        #: and a drain sets 0.0.
        self._backlog = [0.0] * len(self.workers)
        self._task_est: dict[int, float] = {}
        self.n_placement_evals = 0

    def backlog_of(self, worker: WorkerType) -> float:
        """Current backlog seconds attributed to ``worker``."""
        return self._backlog[self._pos[worker.name]]

    # --------------------------------------------------------------- scoring

    def placement_terms(
        self, task: Task, worker: WorkerType, now: float, xfer: Optional[dict] = None
    ) -> tuple[float, ...]:
        """Cost addends beyond the worker's backlog, in fold order.

        ``cost(w) = ((backlog(w) + terms[0]) + terms[1]) + ...`` with
        left-to-right float addition, matching :meth:`placement_cost`.
        Every term must depend on the worker only through its placement
        class (:meth:`Scheduler.placement_class_key`), and ``terms[0]``
        must be the duration estimate (it feeds the backlog accounting).
        ``xfer`` is the class scan's per-decision transfer table (memory
        node -> seconds) for a :attr:`data_aware` policy, ``None`` outside
        the scan.  Subclasses overriding :meth:`placement_cost` must keep
        this method consistent or set :attr:`brute_force_placement`.
        """
        return (self.estimate(task, worker),)

    def placement_cost(self, task: Task, worker: WorkerType, now: float) -> float:
        """Expected completion time of ``task`` on ``worker``."""
        cost = self._backlog[self._pos[worker.name]]
        for term in self.placement_terms(task, worker, now):
            cost += term
        return cost

    def _select_worker(self, task: Task, now: float) -> tuple[WorkerType, float]:
        """Pick the cheapest worker; returns ``(worker, duration_estimate)``.

        The estimate is returned so callers never recompute the winning
        worker's model lookup after the scan already paid for it.
        """
        log = self.decision_log
        if self.brute_force_placement:
            workers = self.eligible(task)
            costs = [self.placement_cost(task, w, now) for w in workers]
            self.n_placement_evals += len(workers)
            best_i = min(range(len(workers)), key=costs.__getitem__)
            best = workers[best_i]
            if log is not None:
                pos = self._pos
                log.append(DecisionRecord(
                    tid=task.tid, label=task.label, kind=task.op.kind,
                    time=now, priority=task.priority, chosen=best.name,
                    chosen_cost=costs[best_i],
                    # One pseudo-class per worker: the brute-force path may
                    # run subclasses whose cost does not decompose into the
                    # shared terms, so only the folded cost is authoritative.
                    candidates=tuple(
                        CandidateClass(
                            class_key=self.placement_class_label(w),
                            workers=(w.name,),
                            indices=(pos[w.name],),
                            backlogs=(self._backlog[pos[w.name]],),
                            terms=(),
                            costs=(cost,),
                        )
                        for w, cost in zip(workers, costs)
                    ),
                ))
            return best, self.estimate(task, best)
        op = task.op
        runs_on_gpu = op.runs_on_gpu
        estimate = self.perf.estimate
        backlog = self._backlog
        inline = self._inline_terms
        # One walk over the task's handles prices every candidate memory
        # node at once (the d2h leg of each miss is shared across targets),
        # instead of one walk per placement class.
        xfer = (
            self.data.transfer_estimates(task.accesses, self._placement_mem_nodes)
            if self.data_aware else None
        )
        if log is not None:
            # What the log keeps of the scan: each priced class's key and
            # terms, where class i's terms end at ends[i].
            log_table = self._placement_log or self._placement_log_table()
            logged: Optional[list] = []
            log_terms: list = []
            ends: list = []
        else:
            logged = None
        best: Optional[WorkerType] = None
        best_cost = math.inf
        best_index = -1
        best_est = 0.0
        n_evals = 0
        for w0, is_gpu, arch, mem_node, index, members, get_members in self._placement_records:
            if is_gpu and not runs_on_gpu:
                continue
            n_evals += 1
            # The class's terms: the duration estimate first, then the rest
            # in fold order.  Stock policies compute them inline (no method
            # call); overrides go through placement_terms.
            if inline:
                est = estimate(op, arch)
                rest = () if xfer is None else (xfer[mem_node],)
            else:
                terms = self.placement_terms(task, w0, now, xfer)
                est = terms[0]
                rest = terms[1:]
            if logged is not None:
                logged.append(index)
                log_terms.append(est)
                log_terms += rest
                ends.append(len(log_terms))
            if get_members is None:
                # Singleton class (each GPU is its own arch): a scalar fold.
                cost = backlog[index] + est
                for term in rest:
                    cost += term
                if cost < best_cost or (cost == best_cost and index < best_index):
                    best, best_cost, best_index, best_est = w0, cost, index, est
            else:
                # The class's floor: its terms folded onto a 0.0 backlog.
                # Backlogs are never negative and a rounded add is
                # monotone, so no member costs less; a class whose floor
                # is above the best cost cannot win.  Not on a tie, which
                # the index tie-break may still give to this class.
                floor = 0.0 + est
                for term in rest:
                    floor += term
                if floor > best_cost:
                    continue
                # The fold: per member, the same left-to-right adds as the
                # scalar loop, so every cost is bit-identical to a
                # per-worker scan.
                costs_list = [b + est for b in get_members(backlog)]
                for term in rest:
                    costs_list = [c + term for c in costs_list]
                # index() finds the FIRST minimum; members are in
                # worker-index order, so this is the lowest-index winner —
                # the same tie-break as the scalar scan.
                cost = min(costs_list)
                i = costs_list.index(cost)
                member_index = members[i][0]
                if cost < best_cost or (cost == best_cost and member_index < best_index):
                    best, best_cost, best_index, best_est = (
                        members[i][1], cost, member_index, est,
                    )
        self.n_placement_evals += n_evals
        if best is None:
            raise RuntimeError(f"no worker can run {task.op.kind!r}")
        if logged is not None:
            log.append_scan(task, now, best.name, float(best_cost), log_table,
                            backlog, logged, log_terms, ends)
        return best, best_est

    # ------------------------------------------------------------------- api

    def _enqueue(self, worker: WorkerType, task: Task) -> None:
        """Queue the placed task on its worker (policy-specific order)."""
        self._queues[worker.name].append(task)

    def push_ready(self, task: Task, now: float) -> Optional[WorkerType]:
        best, est = self._select_worker(task, now)
        self._enqueue(best, task)
        pos = self._pos[best.name]
        self._backlog[pos] += est
        self._task_est[task.tid] = est
        self.n_pushed += 1
        return best

    def has_work_for(self, worker: WorkerType) -> bool:
        return bool(self._queues[worker.name])

    def pop(self, worker: WorkerType, now: float) -> Optional[Task]:
        queue = self._queues[worker.name]
        if not queue:
            return None
        self.n_popped += 1
        return self._take(queue)

    def _take(self, queue: deque) -> Task:
        return queue.popleft()

    def peek(self, worker: WorkerType) -> Optional[Task]:
        queue = self._queues[worker.name]
        return queue[0] if queue else None

    def peek_many(self, worker: WorkerType, depth: int) -> list[Task]:
        queue = self._queues[worker.name]
        return [queue[i] for i in range(min(depth, len(queue)))]

    def task_finished(self, task: Task, worker: WorkerType, now: float) -> None:
        est = self._task_est.pop(task.tid, 0.0)
        pos = self._pos[worker.name]
        backlog = self._backlog
        # The same clamp as max(0.0, ...), without the call.
        left = backlog[pos] - est
        backlog[pos] = left if left > 0.0 else 0.0

    def _drain_queue(self, worker: WorkerType) -> list[Task]:
        queue = self._queues[worker.name]
        drained = list(queue)
        queue.clear()
        # The worker is gone: nothing queued (or running) counts against it
        # any more.  Re-pushed tasks are re-estimated on their new worker.
        self._backlog[self._pos[worker.name]] = 0.0
        for task in drained:
            self._task_est.pop(task.tid, None)
        return drained

    def has_pending(self) -> bool:
        return any(self._queues.values())
