"""The repository's benchmark: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload potrf-paper --seed 0 --seconds 15 --trace 0

Workloads: ``potrf-paper``, ``reproduce-small``, ``advisor-mixed``,
``govern-faulted`` (see ``workloads.py`` and ``NOTES.md``).  The run
builds nothing: it executes the package under ``src/`` in child
interpreters, one per unit, until the timed bodies add up to
``--seconds`` (and at least the workload's minimum number of units).
Times are reported at a nominal machine speed (``speed.py``), so that a
busy host does not read as a slow program; the report also prints the
raw wall-clock figures and the measured slowdown.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload's reference units twice each, untraced and traced, checks that
both give the same result, and prints the per-layer metrics.  Either way
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report.  Scratch files live under ``.perfbench_work/``
in the repository root; traced runs leave their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: A run stops starting units after this many seconds, so it ends well
#: inside the three minutes a run may take.
START_BUDGET_S = 120.0
UNIT_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class UnitFailed(RuntimeError):
    pass


def run_unit(workload, unit: dict, trace: bool, run_dir: Path, index: int,
             spans: Path | None, deadline: float) -> dict:
    """Run one unit in a fresh interpreter; return its parsed result."""
    workdir = run_dir / f"unit{index}-{'t' if trace else 'u'}"
    workdir.mkdir(parents=True)
    spec = {"workload": workload.name, "unit": unit, "trace": trace,
            "workdir": str(workdir), "spans": str(spans) if spans else None}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One deterministic hash seed and single-threaded numeric libraries:
    # fewer sources of run-to-run variation.
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    timeout = max(10.0, min(UNIT_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "unit.py")], input=json.dumps(spec),
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise UnitFailed(f"unit {index} timed out after {timeout:.0f}s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise UnitFailed(f"unit {index} exited {proc.returncode}:\n{tail}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["unit"] = unit
    return out


def count_failed(outs: list[dict]) -> tuple[int, int]:
    attempted = sum(o.get("attempted", 1) for o in outs)
    failed = sum(len(o["failures"]) for o in outs)
    return attempted, failed


def end_to_end(workload, seed: int, seconds: float, run_dir: Path,
               deadline: float):
    """Units until ``seconds`` of timed body; the end-to-end metrics."""
    units = workload.units(seed, seconds)
    outs, crashes = [], []
    body = 0.0
    started = time.monotonic()
    while len(outs) < workload.min_units or body < seconds:
        if (len(outs) >= workload.min_units
                and time.monotonic() - started > START_BUDGET_S):
            print(f"  note: stopped after {body:.1f} s of timed body")
            break
        try:
            out = run_unit(workload, units[len(outs) % len(units)], False,
                           run_dir, len(outs), None, deadline)
        except UnitFailed as exc:
            crashes.append(str(exc))
            break
        outs.append(out)
        body += out["body_s"]
    figures, checks = workload.summarize(outs) if outs else ({}, [])
    attempted, failed = count_failed(outs)
    attempted += len(crashes)
    failed += len(crashes) + len(checks)
    failures = crashes + checks + [f for o in outs for f in o["failures"]]
    metrics = {}
    if outs:
        # Medians per distinct unit, then one pass over the unit list, so
        # a run that ends mid-list weighs every unit the same.
        groups: dict[str, list[dict]] = {}
        for o in outs:
            groups.setdefault(json.dumps(o["unit"], sort_keys=True), []).append(o)
        walls, raw_walls, bodies, tasks = [], [], [], []
        for group in groups.values():
            walls.append(statistics.median(w for o in group for w in o["walls"]))
            raw_walls.append(statistics.median(w for o in group for w in o["raw_walls"]))
            bodies.append(statistics.median(o["nominal_s"] for o in group))
            tasks.append(statistics.median(o["tasks"] for o in group))
        metrics = {
            "setup_s": statistics.median(o["setup_s"] for o in outs),
            "wall_s": statistics.fmean(walls),
            "sim_tasks_per_s": sum(tasks) / sum(bodies),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        figures["raw_setup_s"] = (
            statistics.median(o["setup_wall_s"] for o in outs), "s")
        figures["raw_wall_s"] = (statistics.fmean(raw_walls), "s")
        figures["slowdown"] = (statistics.median(o["slowdown"] for o in outs), "ratio")
    figures["units"] = (len(outs), "count")
    figures["failed_frac"] = (failed / max(1, attempted), "ratio")
    return metrics, figures, attempted, failed, failures


def traced(workload, seed: int, seconds: float, run_dir: Path, deadline: float):
    """Reference units, untraced and traced in turn; per-layer metrics."""
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain, traced_outs, notes = [], [], []
    crashed = 0
    for i, unit in enumerate(workload.trace_units(seed, seconds)):
        pair = {}
        # Alternate which side runs first, so drift does not favour one.
        for trace in ((False, True) if i % 2 == 0 else (True, False)):
            spans = spans_dir / f"{workload.name}-seed{seed}-unit{i}.jsonl"
            try:
                pair[trace] = run_unit(workload, unit, trace, run_dir, i,
                                       spans if trace else None, deadline)
            except UnitFailed as exc:
                notes.append(str(exc))
                crashed += 1
        if len(pair) < 2:
            break
        if not workload.same_result(pair[True]["result"], pair[False]["result"]):
            notes.append(f"unit {i}: traced result differs from untraced")
        plain.append(pair[False])
        traced_outs.append(pair[True])
    if not traced_outs:
        return {}, {}, 1 + crashed, 1 + crashed, notes, None
    merged = tracing.merge([o["trace"] for o in traced_outs])
    wall = sum(o["body_s"] for o in traced_outs)
    extra = {
        "sim.events": sum(o["events"] for o in traced_outs),
        "obs.bytes_written": sum(o.get("bytes_written", 0) for o in traced_outs),
        # Time per operation, traced over untraced: advisor sessions end
        # on a deadline, so their walls alone would not differ.
        "trace.overhead_ratio": (
            sum(o["nominal_s"] for o in traced_outs) / count_failed(traced_outs)[0]
        ) / (sum(o["nominal_s"] for o in plain) / count_failed(plain)[0]),
    }
    metrics = tracing.layer_metrics(merged, wall, extra)
    calls = {name: slot[0] for name, slot in sorted(merged["agg"].items())}
    silent = [name for name in workload.expect if not calls.get(name)]
    if silent:
        notes.append("expected calls never seen: " + ", ".join(silent))
    (spans_dir / f"{workload.name}-seed{seed}-calls.json").write_text(
        json.dumps(calls, indent=1) + "\n")
    _, checks = workload.summarize(traced_outs)
    attempted, failed = count_failed(plain + traced_outs)
    attempted += crashed
    failed += len(notes) + len(checks)
    failures = notes + checks + [f for o in plain + traced_outs
                                 for f in o["failures"]]
    figures = {"traced_units": (len(traced_outs), "count"),
               "traced_wall_s": (wall, "s")}
    return metrics, figures, attempted, failed, failures, calls


def heaviest(metrics: dict) -> tuple[str, float]:
    shares = {name[len("layer."):-len(".share")]: value
              for name, (value, _) in metrics.items()
              if name.startswith("layer.") and name.endswith(".share")}
    layer = max(shares, key=shares.get)
    return layer, shares[layer]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package to measure at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + 175.0
    run_dir = WORK / f"{workload.name}-{os.getpid()}"
    calls = None
    try:
        if args.trace:
            metrics, figures, attempted, failed, failures, calls = traced(
                workload, args.seed, args.seconds, run_dir, deadline)
        else:
            metrics, figures, attempted, failed, failures = end_to_end(
                workload, args.seed, args.seconds, run_dir, deadline)
            metrics = {name: (metrics[name], unit) for name, unit in END_TO_END
                       if name in metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = failed == 0 and not failures and bool(metrics)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}  nproc {os.cpu_count()}"
          f"  python {platform.python_version()}")
    for name, (value, unit) in list(metrics.items()) + list(figures.items()):
        print(f"  {name:<36} {value:>16.6g} {unit}")
    if calls is not None:
        for name, n in calls.items():
            print(f"  calls {name:<30} {n:>16d}")
        if metrics:
            layer, share = heaviest(metrics)
            print(f"  heaviest layer: {layer} ({100 * share:.1f} % of traced wall)")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(f"  correct: {correct}  attempted {attempted}  failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
