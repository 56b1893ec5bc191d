"""dmdar (dequeue model data aware ready): dmda + ready-data pop order.

Placement is dmda's; the *pop* side differs: when the worker frees up, it
takes the queued task with the largest fraction of its input bytes already
resident on the worker's memory node (StarPU's ``dmdar``).  This trades
strict FIFO fairness for fewer stalls on PCIe transfers.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.data import MEM_HOST
from repro.runtime.graph import Task
from repro.runtime.schedulers.dmda import DMDAScheduler
from repro.runtime.worker import WorkerType


class DMDARScheduler(DMDAScheduler):
    name = "dmdar"

    def _resident_bytes(self, task: Task, mem_node: int) -> int:
        total = 0
        node_bit = 1 << mem_node
        for handle, mode in task.accesses:
            if mode.reads and handle.valid & node_bit:
                total += handle.nbytes
        return total

    def pop(self, worker: WorkerType, now: float) -> Optional[Task]:
        queue = self._queues[worker.name]
        if not queue:
            return None
        best_i = 0
        if worker.mem_node != MEM_HOST and len(queue) > 1:
            best_i = max(
                range(len(queue)),
                key=lambda i: self._resident_bytes(queue[i], worker.mem_node),
            )
        task = queue[best_i]
        del queue[best_i]
        self.n_popped += 1
        return task

    def peek(self, worker: WorkerType) -> Optional[Task]:
        queue = self._queues[worker.name]
        if not queue:
            return None
        if worker.mem_node == MEM_HOST:
            return queue[0]
        best_i = max(
            range(len(queue)),
            key=lambda i: self._resident_bytes(queue[i], worker.mem_node),
        )
        return queue[best_i]
