"""Observability layer: metrics, spans, streaming telemetry, exporters.

Only the leaf modules (``metrics``, ``decisions``, ``manifest``, ``spans``,
``stream``) are re-exported here.  They import nothing outside the stdlib,
which keeps this package importable from deep inside the runtime
(``schedulers/dm.py`` pulls in :mod:`repro.obs.decisions` at import time).
The heavier pipeline modules — :mod:`repro.obs.capture`,
:mod:`repro.obs.exporters`, :mod:`repro.obs.report`,
:mod:`repro.obs.watch` — import the runtime themselves and MUST NOT be
imported from this ``__init__`` or the cycle closes; import them directly.
"""

from repro.obs.decisions import CandidateClass, DecisionLog, DecisionRecord
from repro.obs.manifest import RunManifest, code_version
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import ChildSpans, SpanTracer
from repro.obs.stream import (
    OnlineAggregator,
    StreamWriter,
    TelemetryBus,
    Watchdogs,
)

__all__ = [
    "CandidateClass",
    "DecisionLog",
    "DecisionRecord",
    "RunManifest",
    "code_version",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ChildSpans",
    "SpanTracer",
    "OnlineAggregator",
    "StreamWriter",
    "TelemetryBus",
    "Watchdogs",
]
