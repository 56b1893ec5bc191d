"""Live-telemetry overhead gate: streamed vs post-hoc traced runs.

Runs the reference traced run (POTRF double, small scale, ``HH`` on
24-Intel-2-V100, dmdas, seed 0) as alternating pairs of
``run_traced(stream=True)`` (``events.jsonl`` written live through the
telemetry bus) and ``run_traced(stream=False)`` (the same artefacts,
``events.jsonl`` exported after the run).  The pair order alternates so
machine-speed drift over the run is not booked against one side.

Prints the median streamed/post-hoc wall ratio and exits 1 when it is
above ``CEILING`` or when a streamed run's ``RunResult`` differs from its
post-hoc twin (telemetry must observe the simulation, never perturb it).
Both sides of every ratio run on the same machine, so no baseline file
and no machine-speed correction are needed.

Run from the repo root::

    PYTHONPATH=src python benchmarks/obs_overhead.py
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.core.runs import RunSpec
from repro.experiments.platforms import cap_states, config_list, operation_spec
from repro.obs.capture import run_traced

PLATFORM = "24-Intel-2-V100"
PAIRS = 5
CEILING = 1.05


def traced_wall(stream: bool, outdir: Path, spec, config, states):
    """Wall seconds and result of one full ``run_traced`` (export included)."""
    t0 = time.perf_counter()
    run = run_traced(RunSpec(PLATFORM, spec, config, states), str(outdir),
                     stream=stream)
    return time.perf_counter() - t0, run.results[0]


def main() -> int:
    spec = operation_spec(PLATFORM, "potrf", "double", "small")
    states = cap_states(PLATFORM, "potrf", "double", "small")
    config = next(c for c in config_list(PLATFORM) if set(c.letters) == {"H"})
    ratios = []
    identical = True
    for i in range(PAIRS):
        with tempfile.TemporaryDirectory(prefix="repro-obs-overhead-") as tmp:
            order = (True, False) if i % 2 else (False, True)
            runs = {stream: traced_wall(stream, Path(tmp) / str(stream),
                                        spec, config, states)
                    for stream in order}
        (on_wall, on_result), (off_wall, off_result) = runs[True], runs[False]
        ratios.append(on_wall / off_wall)
        identical = identical and on_result == off_result
    ratio = statistics.median(ratios)
    print(f"streamed/post-hoc wall ratio: median {ratio:.4f} over {PAIRS} "
          f"pairs (min {min(ratios):.4f}, max {max(ratios):.4f}; "
          f"ceiling {CEILING:.2f})")
    failed = False
    if ratio > CEILING:
        print(f"FAIL: live telemetry costs {ratio:.4f}x, over {CEILING:.2f}x",
              file=sys.stderr)
        failed = True
    if not identical:
        print("FAIL: a streamed run's result differs from the post-hoc run",
              file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
