"""Live telemetry: in-process pub/sub bus, streaming writer, online views.

Everything in :mod:`repro.obs` before this module was post-hoc: artifacts
appear when the run finishes.  This module makes the same signals available
*while the run executes*:

* :class:`TelemetryBus` — a tiny synchronous pub/sub hub.  Producers
  (runtime engine, decision log, power sampler, fault injector, recovery
  manager, governor) publish plain-dict events; subscribers see them in
  publish order.  Publishing from inside a subscriber (a watchdog raising
  an anomaly) is safe: events queue and drain in order, so an anomaly
  reaches every subscriber after the event that triggered it and before
  run completion.
* :class:`StreamWriter` — an append-only ``events.jsonl`` writer that
  flushes *during* the run.  A SIGKILL mid-run leaves a readable prefix
  (at most one torn final line, which the readers skip).
* :class:`OnlineAggregator` — windowed rolling state: sim-time p50/p99
  task durations, per-device power, per-worker backlog.
* :class:`Watchdogs` — online anomaly rules (idle-gap, throttle-drift,
  backlog-imbalance, budget-violation) evaluated on a sim-clock cadence,
  emitting structured ``anomaly`` events back into the bus mid-run.

The discipline is the same as the rest of the package: stdlib-only, opt-in,
and zero-cost when detached — a runtime built without a bus pays one
``None`` check per hot-path event.  When attached, the budget is tight (the
overhead gate ``benchmarks/obs_overhead.py`` demands attached ≤ 1.05×
detached wall time), which is why :func:`jsonline` hand-rolls the common
flat-dict case instead of calling :func:`json.dumps` per event.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Any, Callable, Optional

EVENTS_STREAM_FILENAME = "events.jsonl"

#: Slack over the global watt budget treated as float noise rather than a
#: violation: the one tolerance of "caps never exceed the budget", read by
#: the governor's own check and by the budget-violation watchdog alike.
BUDGET_TOLERANCE_W = 0.5

# Watchdog thresholds (simulated seconds unless noted).
#: The cadence-gated rules run at most once per this much simulated time.
EVAL_PERIOD_S = 0.02
#: A (rule, target) pair fires again only after this long.
REARM_S = 0.5
#: An idle stretch longer than this, while peers ran, is an idle-gap.
IDLE_GAP_S = 0.25
#: Throttle-drift: recent mean task duration over the long-run mean ...
DRIFT_RATIO = 1.25
#: ... once at least this many recent tasks are in the window (a count).
DRIFT_MIN_SAMPLES = 6
#: Backlog-imbalance: deepest queue over shallowest (a ratio) ...
IMBALANCE_RATIO = 4.0
#: ... and the deepest queue and the gap both at least this long.
IMBALANCE_MIN_S = 0.05

#: Stream-writer batch: buffered lines are written every this many events.
FLUSH_EVERY = 64

#: Event types worth pushing to disk immediately (rare; operators wait on
#: them).  Bulk types (``interval``, ``decision``, ``power``) batch instead.
FLUSH_NOW_TYPES = frozenset(
    {"run_info", "run_start", "run_end", "anomaly", "fault", "annotation",
     "budget-move"}
)


def jsonline(event: dict, _dumps: Callable[..., str] = json.dumps) -> str:
    """Serialize one flat event dict to a JSON line, fast.

    ``json.dumps`` costs ~3× this on the hot event shapes (measured: 6.6 µs
    vs 2.2 µs per task-interval event), which alone would blow the 5 %
    attached-overhead budget.  Strings that need escaping and non-scalar
    values fall back to ``json.dumps``, so output is always valid JSON and
    round-trips identically.
    """
    parts = []
    for k, v in event.items():
        tv = type(v)
        if tv is str:
            if '"' in v or "\\" in v:
                parts.append(f'"{k}":{_dumps(v)}')
            else:
                parts.append(f'"{k}":"{v}"')
        elif tv is float or tv is int:
            parts.append(f'"{k}":{v!r}')
        elif tv is dict and v:
            # Flat str→number sub-dict (a decision event's backlog
            # snapshot): hand-rolled at ~2.5× the speed of json.dumps.
            # Anything else in the sub-dict bails to the generic encoder.
            sub = []
            for k2, v2 in v.items():
                if (
                    type(k2) is str
                    and type(v2) in (float, int)
                    and '"' not in k2
                    and "\\" not in k2
                ):
                    sub.append(f'"{k2}":{v2!r}')
                else:
                    sub = None
                    break
            if sub is None:
                parts.append(f'"{k}":{_dumps(v, separators=(",", ":"))}')
            else:
                parts.append(f'"{k}":{{' + ",".join(sub) + "}")
        else:
            parts.append(f'"{k}":{_dumps(v, separators=(",", ":"))}')
    return "{" + ",".join(parts) + "}"


class TelemetryBus:
    """Synchronous in-process pub/sub for run telemetry.

    ``clock`` is anything with a ``now`` attribute (the Simulator); events
    published without a ``t`` are stamped with it, so the stream is ordered
    by simulated time as long as producers publish as the sim advances
    (they do — every producer publishes at its own event time).

    ``batch`` bounds delivery latency in events: publishes accumulate and
    fan out to subscribers in one tight loop every ``batch`` events.  The
    default of 1 delivers immediately; the production streaming stack uses
    a larger batch because interleaving subscriber work with the simulator
    hot loop measurably evicts its working set — batch fan-out runs the
    same work ~2× faster (this is most of the attached-overhead budget).
    Operator-facing types (:data:`FLUSH_NOW_TYPES`) always drain at once,
    so a batch never delays the run header, a fault, or an anomaly.

    Task-interval events — ~99% of an attached run's traffic — have a
    typed fast lane, :meth:`publish_interval`, that skips the per-event
    dict: the runtime engine pays one tuple append, and subscribers that
    declare ``on_intervals`` consume whole tuple runs in one call.
    Subscribers without it still receive the equivalent plain-dict
    events, one per interval, so the pub/sub contract is unchanged.
    """

    __slots__ = (
        "clock", "subscribers", "_fanout", "_pending", "_batch", "_draining",
        "n_published",
    )

    def __init__(self, clock: Any = None, batch: int = 1) -> None:
        self.clock = clock
        self.subscribers: list[Callable[[dict], None]] = []
        # (subscriber, its on_intervals batch handler or None), resolved
        # once at subscribe time so the drain loop does no attr probing.
        self._fanout: list[tuple] = []
        self._pending: list = []
        self._batch = max(1, int(batch))
        self._draining = False
        self.n_published = 0

    def subscribe(self, fn: Callable[[dict], None]) -> Callable[[dict], None]:
        """Register ``fn`` to receive every subsequent event, in order."""
        self.subscribers.append(fn)
        self._fanout.append((fn, getattr(fn, "on_intervals", None)))
        return fn

    def publish(self, event: dict) -> None:
        """Deliver ``event`` to every subscriber (within ``batch`` events).

        Re-entrant: a subscriber that publishes (a watchdog raising an
        anomaly) enqueues; the active drain delivers it in the same pass,
        preserving publish order without recursion.
        """
        if "t" not in event:
            clock = self.clock
            event["t"] = clock.now if clock is not None else 0.0
        self.n_published += 1
        pending = self._pending
        pending.append(event)
        if len(pending) >= self._batch or event.get("type") in FLUSH_NOW_TYPES:
            self.drain()

    def publish_interval(
        self, t: float, resource: str, end: float, label: str, task_kind: str
    ) -> None:
        """Fast lane for a completed-task interval (``kind="task"``).

        Equivalent to publishing the corresponding dict event, but the
        hot path pays one tuple append instead of a dict build — the
        runtime engine calls this once per task, and per-event dict
        construction alone was measured to consume most of the ≤1.05×
        attached-overhead budget.
        """
        self.n_published += 1
        pending = self._pending
        pending.append((t, resource, end, label, task_kind))
        if len(pending) >= self._batch:
            self.drain()

    def drain(self) -> None:
        """Fan pending events out to every subscriber, in publish order.

        Events published *during* the drain (anomalies) extend the same
        pass — the index loop observes appends — so causal order holds.
        Consecutive interval tuples are handed to batch-capable
        subscribers as one run; within a run, each subscriber processes
        all of it before the next subscriber starts (the writer sees the
        whole run before the aggregator — publish order per subscriber is
        unchanged, only cross-subscriber interleaving coarsens).
        """
        if self._draining:
            return
        self._draining = True
        try:
            pending = self._pending
            fanout = self._fanout
            i = 0
            while i < len(pending):
                event = pending[i]
                if type(event) is tuple:
                    j = i + 1
                    while j < len(pending) and type(pending[j]) is tuple:
                        j += 1
                    items = pending[i:j]
                    as_dicts = None
                    for fn, fast in fanout:
                        if fast is not None:
                            fast(items)
                        else:
                            if as_dicts is None:
                                as_dicts = [_interval_event(it) for it in items]
                            for ev in as_dicts:
                                fn(ev)
                    i = j
                else:
                    for fn, _ in fanout:
                        fn(event)
                    i += 1
            pending.clear()
        finally:
            self._draining = False

    def close(self) -> None:
        """Drain, then flush/close any subscriber that supports it."""
        self.drain()
        for fn in self.subscribers:
            closer = getattr(fn, "close", None) or getattr(
                getattr(fn, "__self__", None), "close", None
            )
            if closer is not None:
                closer()


#: One formatting pass for the tuple fast lane
#: (:meth:`TelemetryBus.publish_interval`), where ``kind`` is always
#: ``"task"``; ``%.10g`` keeps float formatting inside the C-level ``%``
#: operator (``repr`` per float costs more than the whole format) at 10
#: significant digits — nanoseconds at sim-time scales, far below anything
#: a consumer derives from the stream.
_TASK_INTERVAL_FMT = (
    '{"t":%.10g,"type":"interval","resource":"%s","kind":"task","end":%.10g,'
    '"label":"%s","task_kind":"%s"}'
)


def _interval_event(item: tuple) -> dict:
    """Materialize a fast-lane interval tuple as the equivalent dict event
    (what a generic subscriber — or the JSONL fallback — expects)."""
    t, resource, end, label, task_kind = item
    return {
        "t": t, "type": "interval", "resource": resource, "kind": "task",
        "end": end, "label": label, "task_kind": task_kind,
    }


class StreamWriter:
    """Append-only JSONL subscriber, crash-tolerant by construction.

    Events batch in memory and hit the file every :data:`FLUSH_EVERY`
    events — except the first event and the rare operator-facing types in
    :data:`FLUSH_NOW_TYPES`, which flush immediately so ``repro watch``
    sees the run header, faults and anomalies without delay.  Only whole
    lines are written, so a kill leaves valid JSONL plus at most one torn
    tail (the OS may split the final ``write``), which
    :func:`repro.obs.exporters.read_events_jsonl_tolerant` skips.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = open(self.path, "w")
        self._buf: list[str] = []
        self.n_written = 0
        self._closed = False

    def __call__(self, event: dict) -> None:
        buf = self._buf
        buf.append(jsonline(event))
        self.n_written += 1
        if (
            len(buf) >= FLUSH_EVERY
            or self.n_written == 1
            or event["type"] in FLUSH_NOW_TYPES
        ):
            self.flush()

    #: Quote count of one clean fast-lane line: the format contributes a
    #: fixed number, and the three ``%s`` payloads are supposed to add
    #: none.  Any embedded quote breaks the count; see :meth:`on_intervals`.
    _CLEAN_QUOTES = _TASK_INTERVAL_FMT.count('"')

    def on_intervals(self, items: list) -> None:
        """Tuple fast lane: a whole run of intervals in one format pass.

        The whole run is serialized with ``map(fmt.__mod__, items)`` and
        validated with one C-level scan of the joined chunk (a quote
        count that any embedded ``"`` breaks, plus a ``\\`` search)
        instead of per-item Python checks — that is the difference
        between ~1.2 µs and ~0.7 µs per event, which the ≤1.05×
        attached-overhead gate actually notices.  Any suspicious chunk
        (or a non-numeric timestamp raising ``TypeError``) is redone
        item by item through the escaping-safe :func:`jsonline` path, so
        output is always valid JSON either way.
        """
        first = self.n_written == 0
        buf = self._buf
        try:
            lines = list(map(_TASK_INTERVAL_FMT.__mod__, items))
            chunk = "\n".join(lines)
            if (
                chunk.count('"') != self._CLEAN_QUOTES * len(items)
                or "\\" in chunk
            ):
                raise TypeError
            buf.extend(lines)
        except TypeError:
            for item in items:
                buf.append(jsonline(_interval_event(item)))
        self.n_written += len(items)
        if first or len(buf) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        if self._buf:
            self._fh.write("\n".join(self._buf) + "\n")
            self._buf.clear()
        self._fh.flush()

    def close(self) -> None:
        if not self._closed:
            self.flush()
            self._fh.close()
            self._closed = True


def _quantile(sorted_vals: list, q: float) -> float:
    """Nearest-rank quantile on an already-sorted list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[idx]


class OnlineAggregator:
    """Rolling view of the run, updated per event, summarized on demand.

    Per-event work is O(1) appends and scalar updates; anything that sorts
    or scans (quantiles, windows) happens only in :meth:`snapshot` or a
    cadence-gated watchdog evaluation, keeping the hot path inside the
    attached-overhead budget.
    """

    #: Bounded history so long runs stay O(1) memory.
    TASK_WINDOW = 4096

    def __init__(self) -> None:
        self.now = 0.0
        self.run_info: dict = {}
        self.run_done = False
        self.makespan: Optional[float] = None
        self.n_events = 0
        # tasks: (end_time, duration, worker) — recent completions
        self.tasks: deque = deque(maxlen=self.TASK_WINDOW)
        self.tasks_done = 0
        self.last_task_end = 0.0
        # Per-worker duration stats for drift detection, fused into one
        # ``[count, dur_sum, recent_durs, last_end]`` record so the hot
        # interval path pays a single hash lookup instead of four.
        self.workers: dict[str, list] = {}
        # per-device power (latest sample) + caps from the run_start event
        self.power_w: dict[str, float] = {}
        self.total_power_w = 0.0
        self.gpu_caps: list[float] = []
        self.n_tasks_expected: Optional[int] = None
        # latest backlog snapshot from the decision stream
        self.backlog: dict[str, int] = {}
        self.anomalies: list[dict] = []
        self.faults: list[dict] = []
        # governor state (from budget-move events): latest per-device caps,
        # the global budget, and a transition counter per move kind
        self.budget_w: Optional[float] = None
        self.governed_caps: dict[str, float] = {}
        self.budget_moves: dict[str, int] = {}

    # ------------------------------------------------------------- ingest

    def __call__(self, event: dict) -> None:
        etype = event["type"]
        if etype == "interval":
            self.on_intervals(((event["t"], event["resource"], event["end"]),))
            return
        self.n_events += 1
        t = event["t"]
        if t > self.now:
            self.now = t
        if etype == "decision":
            backlog = event.get("backlog")
            if backlog:
                self.backlog = backlog
        elif etype == "power":
            total = 0.0
            for key, val in event.items():
                if key not in ("t", "type", "total_w"):
                    self.power_w[key] = val
                    total += val
            self.total_power_w = event.get("total_w", total)
        elif etype == "fault":
            self.faults.append(event)
        elif etype == "anomaly":
            self.anomalies.append(event)
        elif etype == "budget-move":
            kind = event.get("kind", "move")
            self.budget_moves[kind] = self.budget_moves.get(kind, 0) + 1
            if "budget_w" in event:
                self.budget_w = event["budget_w"]
            caps = event.get("caps")
            if caps:
                self.governed_caps.update(caps)
        elif etype == "run_info":
            self.run_info = {
                k: v for k, v in event.items() if k not in ("t", "type")
            }
        elif etype == "run_start":
            self.gpu_caps = list(event.get("gpu_caps") or ())
            self.n_tasks_expected = event.get("n_tasks")
        elif etype == "run_end":
            self.run_done = True
            self.makespan = event.get("makespan", t)

    def on_intervals(self, items: list) -> None:
        """Task intervals as ``(t, resource, end, ...)`` tuples, loop locals
        hoisted: the bus's fast lane hands whole runs of the engine's
        5-tuples, and the dict path one 3-tuple (only ``item[:3]`` is
        read)."""
        now = self.now
        last_end = self.last_task_end
        tasks_append = self.tasks.append
        workers = self.workers
        for item in items:
            t = item[0]
            resource = item[1]
            end = item[2]
            if t > now:
                now = t
            dur = end - t
            tasks_append((end, dur, resource))
            if end > last_end:
                last_end = end
            st = workers.get(resource)
            if st is None:
                workers[resource] = [1, dur, deque((dur,), maxlen=16), end]
            else:
                st[0] += 1
                st[1] += dur
                st[2].append(dur)
                st[3] = end
        self.now = now
        self.last_task_end = last_end
        self.n_events += len(items)
        self.tasks_done += len(items)

    # ----------------------------------------------------------- summaries

    def duration_quantiles(self, window_s: Optional[float] = None) -> dict:
        """p50/p99 of recent task durations (sim seconds).

        ``window_s`` restricts to tasks that *ended* within the trailing
        window of simulated time; ``None`` uses the whole retained deque.
        """
        if window_s is None:
            durs = sorted(d for _, d, _ in self.tasks)
        else:
            cutoff = self.now - window_s
            durs = sorted(d for end, d, _ in self.tasks if end >= cutoff)
        return {
            "n": len(durs),
            "p50": _quantile(durs, 0.50),
            "p99": _quantile(durs, 0.99),
        }

    def snapshot(self) -> dict:
        """One dashboard frame; everything ``repro watch`` renders."""
        quant = self.duration_quantiles()
        return {
            "t": self.now,
            "run_info": dict(self.run_info),
            "run_done": self.run_done,
            "makespan": self.makespan,
            "n_events": self.n_events,
            "tasks_done": self.tasks_done,
            "n_tasks_expected": self.n_tasks_expected,
            "gpu_caps": list(self.gpu_caps),
            "task_p50_s": quant["p50"],
            "task_p99_s": quant["p99"],
            "power_w": dict(self.power_w),
            "total_power_w": self.total_power_w,
            "backlog": dict(self.backlog),
            "n_anomalies": len(self.anomalies),
            "n_faults": len(self.faults),
            "budget_w": self.budget_w,
            "governed_caps": dict(self.governed_caps),
            "n_budget_moves": sum(self.budget_moves.values()),
        }


class Watchdogs:
    """Online anomaly detection over an :class:`OnlineAggregator`.

    Subscribed to the same bus as the aggregator (after it, so state is
    current when rules run).  Rules are evaluated at most once per
    :data:`EVAL_PERIOD_S` of simulated time; each (rule, target) pair
    re-arms only after :data:`REARM_S`, so a persistent condition raises
    one anomaly per window instead of one per event.  Anomalies publish
    back into the bus — the re-entrant queue delivers them to every
    subscriber (writer included) immediately after the triggering event,
    which is what makes them visible in the live stream *before* run
    completion.
    """

    def __init__(self, aggregator: OnlineAggregator, bus: TelemetryBus) -> None:
        self.agg = aggregator
        self.bus = bus
        self.raised: list[dict] = []
        self._last_eval = -math.inf
        self._last_fire: dict[tuple, float] = {}
        # Own per-worker end times: the aggregator sits *before* us on the
        # bus, so its worker_last_end already includes the current event —
        # the idle-gap rule needs the end of the worker's *previous* task.
        self._prev_end: dict[str, float] = {}
        # Instance copies of the thresholds the per-event path reads (the
        # attached-overhead budget is ~µs).
        self._eval_period_s = EVAL_PERIOD_S
        self._idle_gap_s = IDLE_GAP_S

    def __call__(self, event: dict) -> None:
        etype = event["type"]
        if etype == "interval":
            self.on_intervals(((event["t"], event["resource"], event["end"]),))
        elif etype != "anomaly":
            self._evaluate(event["t"])

    def on_intervals(self, items: list) -> None:
        """Task intervals as ``(t, resource, end, ...)`` tuples (the dict
        path passes one).  Idle-gap is edge-triggered per task, on the task
        that ends the gap (order-correct within the run), so its cheap
        bail-out runs per item; the cadence-gated rules evaluate once per
        run at its latest timestamp — the same granularity the bus's
        batching already imposes on delivery."""
        prev_ends = self._prev_end
        idle_gap_s = self._idle_gap_s
        for item in items:
            t = item[0]
            worker = item[1]
            prev_end = prev_ends.get(worker)
            prev_ends[worker] = item[2]
            if prev_end is not None and t - prev_end > idle_gap_s:
                self._check_idle_gap(worker, prev_end, t)
        self._evaluate(items[-1][0])

    def _evaluate(self, t: float) -> None:
        """The three cadence-gated rules, at most once per
        :data:`EVAL_PERIOD_S` and never after the run ended."""
        if t - self._last_eval < self._eval_period_s:
            return
        self._last_eval = t
        if self.agg.run_done:
            return
        self._check_throttle_drift(t)
        self._check_backlog_imbalance(t)
        self._check_budget_violation(t)

    # ------------------------------------------------------------- raising

    def _fire(self, t: float, rule: str, target: str, detail: str, **data) -> None:
        key = (rule, target)
        last = self._last_fire.get(key)
        if last is not None and t - last < REARM_S:
            return
        self._last_fire[key] = t
        anomaly = {
            "t": t,
            "type": "anomaly",
            "rule": rule,
            "target": target,
            "detail": detail,
            **data,
        }
        self.raised.append(anomaly)
        self.bus.publish(anomaly)

    # --------------------------------------------------------------- rules

    def _check_idle_gap(self, worker: str, prev_end: float, start: float) -> None:
        """A worker sat idle while peers made progress (called only once
        a gap above threshold is seen; the cheap test lives in the hot
        per-item path)."""
        # Only anomalous if someone else finished work inside the gap —
        # a globally quiet stretch is a dependency stall, not an imbalance.
        peer_ends = [
            st[3] for w, st in self.agg.workers.items() if w != worker
        ]
        if not peer_ends or max(peer_ends) <= prev_end:
            return
        gap = start - prev_end
        self._fire(
            start,
            "idle-gap",
            worker,
            f"{worker} idle {gap:.3f}s while peers ran",
            gap_s=round(gap, 6),
        )

    def _check_throttle_drift(self, t: float) -> None:
        """Recent task durations on one worker drifting above its own
        long-run mean — the online signature of an unreported throttle."""
        for worker, st in self.agg.workers.items():
            count, dur_sum, recent, _ = st
            n_recent = len(recent)
            if n_recent < DRIFT_MIN_SAMPLES or count < 2 * n_recent:
                continue
            recent_sum = sum(recent)
            base_n = count - n_recent
            base_mean = (dur_sum - recent_sum) / base_n
            if base_mean <= 0.0:
                continue
            ratio = (recent_sum / n_recent) / base_mean
            if ratio >= DRIFT_RATIO:
                self._fire(
                    t,
                    "throttle-drift",
                    worker,
                    f"{worker} recent tasks {ratio:.2f}x its baseline",
                    ratio=round(ratio, 4),
                    baseline_s=round(base_mean, 6),
                )

    def _check_budget_violation(self, t: float) -> None:
        """The governor's tracked caps sum past the global watt budget —
        the one invariant a power-budget controller must never break.  The
        governor treats this anomaly as its safe-mode trigger."""
        budget = self.agg.budget_w
        caps = self.agg.governed_caps
        if budget is None or not caps:
            return
        total = sum(caps.values())
        if total > budget + BUDGET_TOLERANCE_W:
            self._fire(
                t,
                "budget-violation",
                "governor",
                f"caps total {total:.1f}W exceed budget {budget:.1f}W",
                total_w=round(total, 3),
                budget_w=round(budget, 3),
            )

    def _check_backlog_imbalance(self, t: float) -> None:
        """One worker's queued seconds of work dwarfing another's — the
        signature of capped-GPU pile-up the paper's dmdas avoids."""
        backlog = self.agg.backlog
        if len(backlog) < 2:
            return
        depths = backlog.values()
        deepest = max(depths)
        shallowest = min(depths)
        if deepest < IMBALANCE_MIN_S or deepest - shallowest < IMBALANCE_MIN_S:
            return
        ratio = deepest / shallowest if shallowest > 0.0 else math.inf
        if ratio >= IMBALANCE_RATIO:
            worker = max(backlog, key=lambda w: backlog[w])
            self._fire(
                t,
                "backlog-imbalance",
                worker,
                f"backlog {deepest:.3f}s on {worker} vs {shallowest:.3f}s elsewhere",
                deepest_s=round(deepest, 6),
                shallowest_s=round(shallowest, 6),
            )


# ------------------------------------------------------------ run identity


def run_info_from_manifest(manifest: Any) -> dict:
    """Flatten a :class:`~repro.obs.manifest.RunManifest` to the label set
    every dashboard needs to identify a series: version, cache fingerprint,
    scheduler, platform, config and seed."""
    cache = getattr(manifest, "cache", None) or {}
    return {
        "version": str(manifest.version or "unknown"),
        "platform": str(manifest.platform),
        "scheduler": str(manifest.scheduler),
        "config": str(manifest.config),
        "op": str(manifest.op),
        "seed": str(manifest.seed),
        "cache_fingerprint": str(cache.get("fingerprint", "") or "none"),
    }


def publish_run_info(registry: Any, info: dict) -> None:
    """Emit the ``repro_run_info`` identity gauge (value always 1; the
    labels are the payload, Prometheus ``*_info`` convention)."""
    registry.gauge(
        "repro_run_info",
        help="Run identity labels (value is always 1)",
        labels=info,
    ).set(1.0)


def run_info_event(info: dict, t: float = 0.0) -> dict:
    """The streamed header form of the same identity labels."""
    return {"t": t, "type": "run_info", **info}
