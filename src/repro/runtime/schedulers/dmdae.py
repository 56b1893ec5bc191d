"""dmdae (EXTENSION): energy-aware dequeue model.

The paper's conclusion calls for "dynamic scheduling algorithms optimizing
energy efficiency".  This variant extends dmdas with an expected-energy term:

    cost(w) = ECT(w) + transfer(w) + lambda * E_est(task, w) / P_ref

where ``E_est`` is the estimated task energy on the candidate device under
its *current* power cap (estimated duration x busy power) and ``P_ref``
converts Joules into comparable seconds.  ``lambda = 0`` recovers dmdas;
larger values trade makespan for energy.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.graph import Task
from repro.runtime.schedulers.dmdas import DMDASScheduler
from repro.runtime.worker import GPUWorker, WorkerType

#: Watts used to translate Joules into seconds in the combined objective.
REFERENCE_POWER_W = 150.0


class DMDAEScheduler(DMDASScheduler):
    name = "dmdae"

    #: Weight of the energy term; overridable per instance.
    energy_weight = 0.5

    def task_energy_estimate(self, task: Task, worker: WorkerType) -> float:
        """Estimated Joules to run ``task`` on ``worker`` under current caps."""
        duration = self.estimate(task, worker)
        op = task.op
        if isinstance(worker, GPUWorker):
            power = worker.gpu.busy_power(op.precision, op.activity(worker.gpu.spec))
        else:
            pkg = worker.package
            power = pkg.spec.per_core_w * pkg.freq_scale**3
        return duration * power

    def placement_terms(
        self, task: Task, worker: WorkerType, now: float, xfer: Optional[list] = None
    ) -> tuple[float, ...]:
        energy = self.task_energy_estimate(task, worker)
        return super().placement_terms(task, worker, now, xfer) + (
            self.energy_weight * energy / REFERENCE_POWER_W,
        )
