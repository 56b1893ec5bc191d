"""dmda (dequeue model data aware): dm plus a transfer-time penalty.

The placement cost adds the predicted time to stage every missing input on
the candidate worker's memory node (including current PCIe queue backlog),
so tasks gravitate to devices that already hold their data.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.graph import Task
from repro.runtime.schedulers.dm import DMScheduler
from repro.runtime.worker import WorkerType


class DMDAScheduler(DMScheduler):
    name = "dmda"

    data_aware = True

    #: :meth:`placement_terms` below is exactly what the class scan
    #: computes inline (estimate, then the table's ``xfer[mem_node]``).
    _inline_terms = True

    def placement_terms(
        self, task: Task, worker: WorkerType, now: float, xfer: Optional[list] = None
    ) -> tuple[float, ...]:
        # Flattened (no super() chain): terms[0] must stay the duration
        # estimate.  Outside the class scan (the brute-force path, or
        # placement_cost called directly) there is no table and the
        # singular transfer_estimate runs instead.
        return (
            self.perf.estimate(task.op, worker.arch),
            xfer[worker.mem_node] if xfer is not None
            else self.data.transfer_estimate(task.accesses, worker.mem_node),
        )
