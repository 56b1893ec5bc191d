"""Hot-path performance benchmark: emits ``BENCH_perf.json``.

Four headline numbers, chosen to cover the optimised layers:

- ``runtime_tasks_per_sec`` — the runtime/scheduler hot path: tasks
  executed per wall second of :meth:`RuntimeSystem.run` for the reference
  application (POTRF double, small scale, ``HH`` on 24-Intel-2-V100,
  dmdas).  Graph and platform construction happen outside the timed
  window — they are setup, not runtime throughput;
- ``sim_events_per_sec`` — the raw discrete-event engine: events processed
  per wall second on a pure event-chain microbenchmark, scheduled through
  the engine's cheapest enqueue API (``post`` where available — the path
  the runtime engine itself uses — falling back to ``schedule`` on older
  engines);
- ``fig3_small_wall_s`` — an end-to-end experiment driver (``fig3`` at
  small scale, optionally with ``--jobs``), run *cold* against a fresh
  experiment cache (all misses, so the wall time includes cache writes);
- ``fig3_small_warm_wall_s`` — the same driver re-run against the
  now-populated cache: every run resolves from disk, and the ratio to the
  cold wall is the incremental-sweep speedup ``check_regression.py``
  enforces;
- ``obs_attached_ratio`` — live-telemetry overhead: the wall-time ratio of
  ``repro trace --stream`` to plain ``repro trace`` on the reference run
  (the product toggle the streaming stack adds: both sides run the full
  tracing instrumentation and write the same artifact set; the attached
  side streams ``events.jsonl`` live through the bus, the detached side
  exports it post-hoc), enforced ≤ 1.05× by ``check_regression.py``.
  The run-phase-only ratio (``obs_run_phase_ratio``, the same toggle with
  the timed window restricted to ``RuntimeSystem.run`` plus the closing
  drain) rides along as evidence — it isolates the bus/subscriber cost
  from the export savings that the end-to-end number nets out.

Every timed measurement is repeated at least three times
(``--repeats``, floored at 3) and the **median** is reported as the
headline, so the regression floors are not at the mercy of one noisy
sample on a shared CI runner.  The min and max of each repeat set ride
along in the JSON (``*_min``/``*_max``) as dispersion evidence.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_perf.py --out BENCH_perf.json

The JSON also records supporting evidence: the per-task placement-eval
count (the equivalence-class optimisation keeps it at the number of
worker classes, not the number of workers), the cancellable ``schedule``
path's event throughput, the macro-task-mode throughput when the runtime
supports it, the warm run's hit rate and row equality, and the
simulator-engine event counts for the cold and warm fig3 phases — the
engine work the cache actually saved (truthful for ``--jobs 1``: pool
workers accumulate engine totals in their own processes).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

MIN_REPEATS = 3


def _spread(key: str, walls: list[float], scale: float) -> dict:
    """Median/min/max throughput triple for a set of repeat wall times."""
    return {
        key: round(scale / statistics.median(walls), 1),
        f"{key}_min": round(scale / max(walls), 1),
        f"{key}_max": round(scale / min(walls), 1),
    }


def _reference_setup():
    from repro.experiments.platforms import cap_states, config_list, operation_spec

    platform = "24-Intel-2-V100"
    spec = operation_spec(platform, "potrf", "double", "small")
    states = cap_states(platform, "potrf", "double", "small")
    config = next(c for c in config_list(platform) if set(c.letters) == {"H"})
    return platform, spec, states, config


def _timed_reference_run(platform, spec, states, config, attach=None,
                         **runtime_kwargs):
    """One reference run; returns ``(wall_seconds, RunResult)``.

    Platform and graph construction are deliberately outside the timed
    window: the metric is runtime throughput, not setup cost.  ``attach``
    (if given) is called with ``(sim, runtime)`` before the timed window —
    the hook the observability-overhead benchmark uses to wire a telemetry
    bus — and may return a finalizer that runs *inside* the window (so a
    stream writer's final flush counts as overhead, as it does in a run).
    """
    from repro.hardware.catalog import build_platform
    from repro.runtime import RuntimeSystem
    from repro.sim import Simulator

    sim = Simulator()
    node = build_platform(platform, sim)
    node.set_gpu_caps(config.watts(states))
    runtime = RuntimeSystem(node, scheduler="dmdas", seed=0, **runtime_kwargs)
    graph = spec.build_graph()
    finish = attach(sim, runtime) if attach is not None else None
    t0 = time.perf_counter()
    result = runtime.run(graph)
    if finish is not None:
        finish()
    return time.perf_counter() - t0, result


def bench_runtime(repeats: int) -> dict:
    """Reference application run: tasks/s through the full runtime."""
    from repro.core.tradeoff import run_operation

    platform, spec, states, config = _reference_setup()
    walls = []
    result = None
    for _ in range(repeats):
        wall, result = _timed_reference_run(platform, spec, states, config)
        walls.append(wall)
    payload = _spread("runtime_tasks_per_sec", walls, result.n_tasks)
    payload.update({
        "runtime_wall_s": round(statistics.median(walls), 4),
        "runtime_n_tasks": result.n_tasks,
        "placement_evals_per_task": round(
            result.n_placement_evals / result.n_tasks, 3
        ),
        "reference_gflops": round(
            run_operation(platform, spec, config, states).gflops, 1
        ),
    })
    # Opt-in macro-task mode (post-refactor engines only): same reference
    # run with same-worker task chains fused into single engine events.
    # Excluded from the bit-identity bar, so it is reported separately and
    # never feeds the replay-audited headline number.
    try:
        macro_walls = [
            _timed_reference_run(
                platform, spec, states, config, macro_tasks=True
            )[0]
            for _ in range(repeats)
        ]
    except TypeError:  # pre-refactor RuntimeSystem: no macro_tasks kwarg
        pass
    else:
        payload.update(
            _spread("runtime_macro_tasks_per_sec", macro_walls, result.n_tasks)
        )
    return payload


def _traced_reference_run(platform, spec, states, config, stream_dir=None):
    """One reference run in the ``repro trace`` configuration.

    Both halves of the overhead pair run the full tracing stack — tracer,
    metrics registry, decision log, power sampler — because that is the
    only configuration that can stream; a bare runtime with a bus is not a
    product path, and benchmarking one would measure a denominator no user
    ever runs.  The run is built by :func:`repro.core.runs.build_run` from
    the same spec :func:`repro.obs.capture.run_traced` uses; ``stream_dir``
    switches the live-telemetry stack on.  Returns ``(wall_s, result)``:
    the timed window covers graph construction, the run and the bus's
    closing drain/flush, but no artefact export.
    """
    from repro.core.runs import RunSpec, build_run

    run = build_run(
        RunSpec(platform, spec, config, states, seed=0, observe=True,
                power_period_s=0.005),
        outdir=stream_dir, stream=stream_dir is not None,
    )
    t0 = time.perf_counter()
    (result,) = run.execute([spec])
    return time.perf_counter() - t0, result


def bench_obs(repeats: int) -> dict:
    """Observability overhead: streaming-attached vs detached traced runs.

    The headline ``obs_attached_ratio`` is the product comparison the
    streaming stack actually changes: one full ``run_traced`` with
    ``stream=True`` (``events.jsonl`` written live through the telemetry
    bus — writer, aggregator, watchdogs, decision log and power sampler
    publishing) against one with ``stream=False`` (the same artifact set,
    ``events.jsonl`` exported post-hoc).  Each repeat is a *pair* run in
    alternating order — machine speed drifts over a bench session (turbo
    decay, cache state), and a fixed order would book all of that drift
    against one side — and the headline is the median per-pair ratio;
    ``check_regression.py`` enforces the ceiling.  The streamed run's
    result must equal the detached one — telemetry that perturbs the
    simulation is a bug, not overhead.

    ``obs_run_phase_ratio`` rides along as ungated evidence: the same
    toggle with the timed window restricted to the run phase (no artifact
    export on either side), which isolates the bus/subscriber cost that
    the end-to-end number partly nets out against the skipped post-hoc
    ``events.jsonl`` export.
    """
    import tempfile

    from repro.obs.capture import run_traced

    platform, spec, states, config = _reference_setup()
    ratios, off_walls, on_walls = [], [], []
    n_stream_events = 0
    identical = True

    def traced(stream, outdir):
        t0 = time.perf_counter()
        run = run_traced(
            platform, spec, config, states, outdir,
            scheduler="dmdas", seed=0, stream=stream,
        )
        return time.perf_counter() - t0, run

    for i in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
            on_dir = str(Path(tmp) / "on")
            off_dir = str(Path(tmp) / "off")
            if i % 2:
                wall_on, run_on = traced(True, on_dir)
                wall_off, run_off = traced(False, off_dir)
            else:
                wall_off, run_off = traced(False, off_dir)
                wall_on, run_on = traced(True, on_dir)
            n_stream_events = run_on.bus.n_published
        off_walls.append(wall_off)
        on_walls.append(wall_on)
        ratios.append(wall_on / wall_off)
        identical = identical and run_on.result == run_off.result

    phase_ratios = []
    for i in range(min(repeats, 5)):
        with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
            if i % 2:
                on = _traced_reference_run(
                    platform, spec, states, config, stream_dir=tmp
                )[0]
                off = _traced_reference_run(platform, spec, states, config)[0]
            else:
                off = _traced_reference_run(platform, spec, states, config)[0]
                on = _traced_reference_run(
                    platform, spec, states, config, stream_dir=tmp
                )[0]
            phase_ratios.append(on / off)

    return {
        "obs_attached_ratio": round(statistics.median(ratios), 4),
        "obs_attached_ratio_max": round(max(ratios), 4),
        "obs_detached_wall_s": round(statistics.median(off_walls), 4),
        "obs_attached_wall_s": round(statistics.median(on_walls), 4),
        "obs_run_phase_ratio": round(statistics.median(phase_ratios), 4),
        "obs_stream_events": n_stream_events,
        "obs_results_identical": identical,
    }


def _chain_wall(n_events: int, cancellable: bool) -> float:
    """Wall time of one self-rescheduling event chain."""
    from repro.sim import Simulator

    sim = Simulator()
    post = getattr(sim, "post", None)
    sched = sim.schedule if cancellable or post is None else post
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sched(1e-6, tick)

    sched(0.0, tick)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def _burst_wall(n_events: int, width: int) -> float:
    """Wall time of a same-timestamp fan-out burst pattern.

    Each wave posts ``width - 1`` leaf events at one shared future
    timestamp plus the next wave's driver at a later one — the shape a
    runtime produces when a completion releases many ready tasks at once,
    and the case the engine's same-timestamp batch delivery targets.
    """
    from repro.sim import Simulator

    sim = Simulator()
    post_at = getattr(sim, "post_at", None)
    if post_at is None:  # pre-refactor engine: absolute-time schedule
        post_at = sim.schedule_at
    remaining = [n_events]

    def leaf() -> None:
        remaining[0] -= 1

    def wave() -> None:
        remaining[0] -= 1
        if remaining[0] <= 0:
            return
        now = sim.now
        for _ in range(min(width - 1, remaining[0] - 1)):
            post_at(now + 1e-6, leaf)
        post_at(now + 2e-6, wave)

    post_at(0.0, wave)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def bench_sim(repeats: int, n_events: int) -> dict:
    """Pure event-engine throughput: a self-rescheduling event chain.

    The headline uses the engine's fast no-handle enqueue (``post``) —
    the API the runtime engine drives the simulator with; the cancellable
    ``schedule`` path is reported alongside, as is a same-timestamp
    fan-out burst (the batch-delivery fast path).
    """
    walls = [_chain_wall(n_events, cancellable=False) for _ in range(repeats)]
    payload = _spread("sim_events_per_sec", walls, n_events)
    cancellable = [
        _chain_wall(n_events, cancellable=True) for _ in range(repeats)
    ]
    burst = [_burst_wall(n_events, width=64) for _ in range(repeats)]
    payload.update(_spread("sim_burst_events_per_sec", burst, n_events))
    payload.update({
        "sim_wall_s": round(statistics.median(walls), 4),
        "sim_n_events": n_events,
        "sim_burst_width": 64,
        "sim_events_per_sec_cancellable": round(
            n_events / statistics.median(cancellable), 1
        ),
    })
    return payload


def bench_fig3(repeats: int, jobs: int) -> dict:
    """End-to-end experiment driver at small scale, cold then warm."""
    import tempfile

    from repro.cache import ExperimentCache
    from repro.experiments import fig3_double
    from repro.sim import ENGINE_TOTALS

    cold_walls, warm_walls = [], []
    evidence = None
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
            cold_cache = ExperimentCache(tmp)
            ev0 = ENGINE_TOTALS.snapshot()
            t0 = time.perf_counter()
            result = fig3_double.run(scale="small", jobs=jobs, cache=cold_cache)
            cold_walls.append(time.perf_counter() - t0)
            ev1 = ENGINE_TOTALS.snapshot()

            # Fresh cache object, same store: counters isolate the warm run.
            warm_cache = ExperimentCache(tmp, fingerprint=cold_cache.fingerprint)
            t0 = time.perf_counter()
            warm = fig3_double.run(scale="small", jobs=jobs, cache=warm_cache)
            warm_walls.append(time.perf_counter() - t0)
            ev2 = ENGINE_TOTALS.snapshot()
        if evidence is None:
            lookups = warm_cache.hits + warm_cache.misses
            evidence = {
                "fig3_warm_hit_rate": (
                    round(warm_cache.hits / lookups, 4) if lookups else 0.0
                ),
                "fig3_warm_rows_identical": warm.rows == result.rows,
                "fig3_engine_events_cold": ev1[0] - ev0[0],
                "fig3_engine_events_warm": ev2[0] - ev1[0],
                "fig3_jobs": jobs,
                "fig3_n_rows": len(result.rows),
            }
    return {
        "fig3_small_wall_s": round(statistics.median(cold_walls), 2),
        "fig3_small_wall_s_min": round(min(cold_walls), 2),
        "fig3_small_wall_s_max": round(max(cold_walls), 2),
        "fig3_small_warm_wall_s": round(statistics.median(warm_walls), 4),
        "fig3_small_warm_wall_s_min": round(min(warm_walls), 4),
        "fig3_small_warm_wall_s_max": round(max(warm_walls), 4),
        **evidence,
    }


def write_profile(path: Path) -> None:
    """One extra reference run under cProfile.

    Writes the binary stats to ``path`` (loadable with ``pstats`` or
    snakeviz) and a cumulative-time top-40 next to it as ``path + .txt`` —
    the artifact CI uploads so a throughput regression comes with the
    profile that explains it, not just a number.
    """
    import cProfile
    import io
    import pstats

    platform, spec, states, config = _reference_setup()
    from repro.hardware.catalog import build_platform
    from repro.runtime import RuntimeSystem
    from repro.sim import Simulator

    sim = Simulator()
    node = build_platform(platform, sim)
    node.set_gpu_caps(config.watts(states))
    runtime = RuntimeSystem(node, scheduler="dmdas", seed=0)
    graph = spec.build_graph()
    profile = cProfile.Profile()
    profile.enable()
    runtime.run(graph)
    profile.disable()
    profile.dump_stats(path)
    text = io.StringIO()
    pstats.Stats(profile, stream=text).sort_stats("cumulative").print_stats(40)
    path.with_suffix(path.suffix + ".txt").write_text(text.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_perf.json"))
    parser.add_argument("--profile", type=Path, default=None,
                        help="also write cProfile stats of one reference "
                             "run to this path (plus a .txt summary)")
    parser.add_argument("--repeats", type=int, default=5,
                        help=f"repeats per measurement; median is the "
                             f"headline (floored at {MIN_REPEATS})")
    parser.add_argument("--sim-events", type=int, default=200_000)
    parser.add_argument("--jobs", type=int, default=1,
                        help="process-pool width for the fig3 benchmark")
    parser.add_argument("--skip-fig3", action="store_true",
                        help="emit only the runtime and sim-engine numbers")
    args = parser.parse_args(argv)
    repeats = max(MIN_REPEATS, args.repeats)

    payload = {"benchmark": "repro-perf", "scale": "small",
               "bench_repeats": repeats}
    payload.update(bench_runtime(repeats))
    payload.update(bench_obs(repeats))
    payload.update(bench_sim(repeats, args.sim_events))
    if not args.skip_fig3:
        payload.update(bench_fig3(MIN_REPEATS, args.jobs))
    if args.profile is not None:
        write_profile(args.profile)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    json.dump(payload, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
