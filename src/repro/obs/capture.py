"""Fully-instrumented single runs: ``repro run`` without a plan or budget.

:func:`run_traced` builds a :class:`~repro.core.runs.RunSpec`'s run
(through :func:`repro.core.runs.build_run`) with every observability layer
on — tracer, metrics registry, scheduler decision log, power sampler — and
writes a self-describing run directory:

========================  ====================================================
``manifest.json``         provenance (:class:`repro.obs.manifest.RunManifest`)
``result.json``           aggregate :class:`~repro.runtime.engine.RunResult`
``decisions.jsonl``       scheduler decision log, one line per decision
``events.jsonl``          merged time-ordered event stream
``trace.json``            Perfetto trace with power/backlog counter tracks,
                          each at its change points
``metrics.prom``          Prometheus text snapshot of the metrics registry
``spans.jsonl``           phase spans (only when a span tracer is active)
========================  ====================================================

``stream=True`` switches ``events.jsonl`` from a post-hoc export to a live
append-only stream: a :class:`~repro.obs.stream.TelemetryBus` carries every
producer's events through a flushing writer *while the run executes*, with
an online aggregator and watchdogs attached.  The manifest is written
before the run starts so ``repro watch`` can label a run it is tailing —
and so a killed run still identifies itself.  The simulated numbers are
bit-identical either way.  The streamed ``events.jsonl`` differs from the
post-hoc export in one deliberate way: ``decision`` events are sampled at
the decision log's stream cadence (every decision stays in
``decisions.jsonl``), which is what keeps the attached overhead inside
the gate enforced by ``benchmarks/obs_overhead.py``.

``repro report`` consumes such a directory; see :mod:`repro.obs.report`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.runs import POWER_PERIOD_S, Run, RunSpec, build_run


def run_traced(spec: RunSpec, outdir: str, stream: bool = False) -> Run:
    """Run ``spec``'s operation with full observability and dump the
    artefact directory; return the executed :class:`~repro.core.runs.Run`.

    The run is power-sampled every ``spec.power_period_s`` (default
    :data:`~repro.core.runs.POWER_PERIOD_S`).  ``stream=True`` writes
    ``events.jsonl`` live through a telemetry bus (crash-tolerant,
    watchable mid-run) instead of exporting it post-hoc.
    """
    run = build_run(
        replace(spec, observe=True, power_period_s=(
            POWER_PERIOD_S if spec.power_period_s is None else spec.power_period_s
        )),
        outdir=outdir, stream=stream,
    )
    run.execute([spec.operation])
    measure = run.measurement
    run.write_artefacts(result_extra={
        "measured_cpu_j": measure.cpu_j,
        "measured_gpu_j": measure.gpu_j,
    })
    return run
