"""Fully-instrumented single runs: the ``repro trace`` backend.

:func:`run_traced` builds the same run as
:func:`repro.core.tradeoff.run_operation` (through
:func:`repro.core.runs.build_run`) with every observability layer on —
tracer, metrics registry, scheduler decision log, power sampler — and
writes a self-describing run directory:

========================  ====================================================
``manifest.json``         provenance (:class:`repro.obs.manifest.RunManifest`)
``result.json``           aggregate :class:`~repro.runtime.engine.RunResult`
``decisions.jsonl``       scheduler decision log, one record per task
``events.jsonl``          merged time-ordered event stream
``trace.json``            Perfetto trace with power/backlog counter tracks
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
the decision log's stream cadence (the full per-task records stay in
``decisions.jsonl``), which is what keeps the attached overhead inside
the gate enforced by ``benchmarks/obs_overhead.py``.

``repro report`` consumes such a directory; see :mod:`repro.obs.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from repro.core.capconfig import CapConfig, CapStates
from repro.core.runs import RunSpec, build_run
from repro.core.tradeoff import OperationSpec
from repro.obs.decisions import DecisionLog
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import OnlineAggregator, TelemetryBus
from repro.runtime.engine import RunResult
from repro.sim import Tracer
from repro.tools.powertrace import PowerSampler


@dataclass
class TracedRun:
    """Everything produced by one instrumented run."""

    outdir: Path
    result: RunResult
    manifest: RunManifest
    registry: MetricsRegistry
    decisions: DecisionLog
    tracer: Tracer
    sampler: PowerSampler
    #: Streaming-mode extras (``None``/empty for post-hoc runs).
    bus: Optional[TelemetryBus] = None
    aggregator: Optional[OnlineAggregator] = None
    anomalies: list = field(default_factory=list)


def run_traced(
    platform: str,
    spec: OperationSpec,
    config: CapConfig,
    states: CapStates,
    outdir: str,
    scheduler: str = "dmdas",
    seed: int = 0,
    cpu_caps: Optional[Mapping[int, float]] = None,
    scale: str = "custom",
    power_period_s: float = 0.005,
    stream: bool = False,
) -> TracedRun:
    """Run one (platform, operation, cap config) with full observability and
    dump the artefact directory.

    ``stream=True`` writes ``events.jsonl`` live through a telemetry bus
    (crash-tolerant, watchable mid-run) instead of exporting it post-hoc.
    """
    run = build_run(
        RunSpec(
            platform, spec, config, states, scheduler=scheduler, seed=seed,
            cpu_caps=cpu_caps, scale=scale, observe=True,
            power_period_s=power_period_s,
        ),
        outdir=outdir, stream=stream,
    )
    (result,) = run.execute([spec])
    measure = run.measurement
    run.write_artefacts(result_extra={
        "measured_cpu_j": measure.cpu_j,
        "measured_gpu_j": measure.gpu_j,
    })
    return TracedRun(
        outdir=run.outdir, result=result, manifest=run.manifest,
        registry=run.registry, decisions=run.decisions, tracer=run.tracer,
        sampler=run.sampler, bus=run.bus, aggregator=run.aggregator,
        anomalies=run.anomalies,
    )
