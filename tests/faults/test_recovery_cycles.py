"""Fault recovery leaves no reference cycles behind.

A running task's watchdog is an engine event whose arguments hold the
task's in-flight entry, and the entry holds the watchdog.  Recovery drops
the watchdog when the task finishes or aborts, so the entry is freed at
once instead of waiting for the cyclic GC.
"""

import gc

from repro.core.capconfig import CapConfig
from repro.core.runs import RunSpec
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.faults.recovery import _Inflight
from repro.sim.engine import EventHandle

PLATFORM = "24-Intel-2-V100"


def test_chaos_run_leaves_no_watchdog_cycles():
    spec = operation_spec(PLATFORM, "potrf", "double", "tiny")
    states = cap_states(PLATFORM, "potrf", "double", "tiny")
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        chaos = run_chaos(RunSpec(
            PLATFORM, spec, CapConfig("HH"), states, scheduler="dmdas",
            seed=0, scale="tiny", plan=preset_plan("kill-throttle"),
        ))
        gc.collect()
        # Only this run's objects: earlier tests may leave garbage of
        # their own for this collection to find.
        sim = chaos.recovery.sim
        cyclic = [
            obj for obj in gc.garbage
            if (isinstance(obj, EventHandle) and obj._sim is sim)
            or (isinstance(obj, _Inflight) and obj.handle._sim is sim)
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert chaos.summary["faults_injected"] > 0
    assert cyclic == []
