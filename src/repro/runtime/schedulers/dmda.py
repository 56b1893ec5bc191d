"""dmda (dequeue model data aware): dm plus a transfer-time penalty.

The placement cost adds the predicted time to stage every missing input on
the candidate worker's memory node (including current PCIe queue backlog),
so tasks gravitate to devices that already hold their data.
"""

from __future__ import annotations

from repro.runtime.graph import Task
from repro.runtime.schedulers.dm import DMScheduler
from repro.runtime.worker import WorkerType


class DMDAScheduler(DMScheduler):
    name = "dmda"

    #: :meth:`placement_terms` below is exactly what the class scan
    #: computes inline (estimate, then ``_xfer_by_node[mem_node]``).
    _inline_terms = True

    def _prepare_decision(self, task: Task, now: float) -> None:
        # One pass over the task's handles prices every candidate memory
        # node at once (the d2h leg of each miss is shared across targets),
        # instead of one full walk per placement class.  Outside a decision
        # (e.g. the brute-force path calling placement_terms directly) the
        # table is None and the singular transfer_estimate runs instead.
        self._xfer_by_node = self.data.transfer_estimates(
            task.accesses, self._placement_mem_nodes
        )

    def _finish_decision(self) -> None:
        self._xfer_by_node = None

    def placement_terms(self, task: Task, worker: WorkerType, now: float) -> tuple[float, ...]:
        # Flattened (no super() chain): this runs once per placement class
        # for every pushed task.  terms[0] must stay the duration estimate.
        xfer = self._xfer_by_node
        return (
            self.perf.estimate(task.op, worker.arch),
            xfer[worker.mem_node] if xfer is not None
            else self.data.transfer_estimate(task.accesses, worker.mem_node),
        )
