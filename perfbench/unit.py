"""Run one benchmark unit in this interpreter and print its JSON result.

Started by ``run.py`` as a fresh process per unit; reads the unit spec
(``workload``, ``unit``, ``trace``, ``workdir``, ``spans``) as JSON on
standard input and prints one JSON object as its last line of output.
Set-up and body times are at the nominal machine speed (``speed.py``);
the raw wall-clock times ride along as ``setup_wall_s`` and ``raw_walls``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import speed


def main() -> int:
    clock = speed.Speedometer()
    clock.start()
    t0 = time.perf_counter()
    spec = json.load(sys.stdin)
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    tracer = tracing.install() if spec["trace"] else None
    tasks = None if tracer is not None else tracing.count_tasks()
    fixture = workload.setup(spec["unit"], Path(spec["workdir"]))
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.reset()

    from repro.sim import ENGINE_TOTALS

    events0 = ENGINE_TOTALS.snapshot()[0]
    out = workload.body(fixture, spec["unit"], clock)
    clock.stop()
    out["events"] = ENGINE_TOTALS.snapshot()[0] - events0
    out["setup_s"] = clock.nominal(t0, t1)
    out["setup_wall_s"] = t1 - t0
    out["slowdown"] = clock.slowdown(t0, time.perf_counter())
    out.setdefault("body_s", sum(out["raw_walls"]))
    out.setdefault("nominal_s", sum(out["walls"]))
    out.setdefault("failures", [])
    if tracer is not None:
        out["trace"] = tracer.export(spec["spans"])
        out["tasks"] = out["trace"]["counters"].get("runtime.tasks", 0)
    else:
        out["tasks"] = tasks()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
