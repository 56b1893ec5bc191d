"""``repro watch``: tail a (possibly still-running) streamed run directory.

A streamed run (``repro run --outdir DIR --stream``) writes
``manifest.json`` up front and appends to ``events.jsonl`` while it
executes.  This module turns that file into a refreshing plain-text
dashboard:

- :class:`StreamTail` — incremental JSONL reader.  Remembers its byte
  offset between polls, keeps a partial final line buffered until its
  newline arrives, and counts lines that never parse (the torn tail of a
  killed run).
- :func:`render_dashboard` — one text frame from an
  :class:`~repro.obs.stream.OnlineAggregator` snapshot: run identity,
  progress, per-GPU power vs cap bars, per-worker backlog bars and the
  anomaly feed.
- :func:`watch_command` — the CLI loop: poll, feed the aggregator, redraw.
  ``follow=False`` renders a single frame of whatever the stream holds so
  far (works on completed and killed runs alike); ``follow=True`` keeps
  polling until the ``run_end`` event lands or a timeout expires.

Everything here is read-only over the run directory, so it is safe to
point at a directory owned by a live process on any platform — the writer
only ever appends whole lines.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from repro.obs.exporters import EVENTS_FILENAME, RESULT_FILENAME
from repro.obs.manifest import MANIFEST_FILENAME
from repro.obs.stream import OnlineAggregator

#: Width of the power/backlog bars in dashboard frames.
BAR_WIDTH = 22


class StreamTail:
    """Incremental reader for an append-only JSONL stream.

    Each :meth:`poll` returns the events appended since the previous poll.
    A line whose newline has not arrived yet stays buffered — it is *not*
    torn, just in flight.  A complete line that fails to parse is torn and
    counted in :attr:`n_torn`; :attr:`pending_partial` reports whether the
    buffer still holds an unterminated fragment (a killed run's tail).
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.n_torn = 0
        self._offset = 0
        self._buf = ""

    @property
    def pending_partial(self) -> bool:
        return bool(self._buf.strip())

    def poll(self) -> list[dict]:
        """Read and parse whatever has been appended since the last poll."""
        try:
            fh = open(self.path)
        except FileNotFoundError:
            return []
        with fh:
            fh.seek(self._offset)
            chunk = fh.read()
            self._offset = fh.tell()
        if not chunk:
            return []
        lines = (self._buf + chunk).split("\n")
        # The final element is the text after the last newline: empty when
        # the chunk ended cleanly, otherwise a partial line to carry over.
        self._buf = lines.pop()
        events: list[dict] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                self.n_torn += 1
        return events


def _bar(value: float, full: float, width: int = BAR_WIDTH) -> str:
    """A ``#``/``.`` bar of ``width`` cells, clamped to [0, full]."""
    if full <= 0.0:
        return "." * width
    filled = int(round(width * min(1.0, max(0.0, value / full))))
    return "#" * filled + "." * (width - filled)


def render_dashboard(
    snapshot: dict,
    rundir: str = "",
    n_torn: int = 0,
    partial_tail: bool = False,
    max_anomalies: int = 6,
) -> str:
    """One plain-text dashboard frame from an aggregator snapshot."""
    info = snapshot.get("run_info") or {}
    lines: list[str] = []
    title = str(rundir) or "stream"
    lines.append(f"== repro watch :: {title} ==")
    if info:
        lines.append(
            f"platform {info.get('platform', '?')}"
            f"  config {info.get('config', '?')}"
            f"  scheduler {info.get('scheduler', '?')}"
            f"  seed {info.get('seed', '?')}"
            f"  version {info.get('version', '?')}"
        )
    state = "DONE" if snapshot.get("run_done") else "RUNNING"
    expected = snapshot.get("n_tasks_expected")
    done = snapshot.get("tasks_done", 0)
    progress = f"{done}"
    if expected:
        progress = f"{done}/{expected}"
    lines.append(
        f"[{state}] sim t={snapshot.get('t', 0.0):.4f}s"
        f"  events={snapshot.get('n_events', 0)}"
        f"  tasks={progress}"
        f"  p50={snapshot.get('task_p50_s', 0.0) * 1e3:.2f}ms"
        f"  p99={snapshot.get('task_p99_s', 0.0) * 1e3:.2f}ms"
    )
    makespan = snapshot.get("makespan")
    if makespan is not None:
        lines.append(f"makespan {makespan:.4f}s")

    power = snapshot.get("power_w") or {}
    caps = snapshot.get("gpu_caps") or []
    gpu_devices = sorted(d for d in power if d.startswith("gpu"))
    if gpu_devices:
        lines.append("-- power vs cap --")
        for dev in gpu_devices:
            idx = int(dev.removeprefix("gpu")) if dev[3:].isdigit() else -1
            cap = caps[idx] if 0 <= idx < len(caps) else 0.0
            watts = power[dev]
            cap_txt = f"{cap:5.0f}W cap" if cap else "   no cap"
            lines.append(
                f"  {dev:<6} {_bar(watts, cap or watts)} {watts:6.1f}W / {cap_txt}"
            )
        other = [d for d in sorted(power) if not d.startswith("gpu")]
        if other:
            row = "  ".join(f"{d}={power[d]:.1f}W" for d in other)
            lines.append(f"  other: {row}")
        lines.append(f"  total: {snapshot.get('total_power_w', 0.0):.1f}W")

    backlog = snapshot.get("backlog") or {}
    if backlog:
        deepest = max(backlog.values()) or 1.0
        busy = {w: d for w, d in backlog.items() if d > 0.0}
        lines.append("-- backlog (queued est. seconds) --")
        for worker in sorted(busy):
            depth = busy[worker]
            lines.append(
                f"  {worker:<8} {_bar(depth, deepest)} {depth:8.4f}s"
            )
        n_idle = len(backlog) - len(busy)
        if n_idle:
            lines.append(f"  ({n_idle} worker(s) with empty backlog)")

    if snapshot.get("n_faults"):
        lines.append(f"faults observed: {snapshot['n_faults']}")

    anomalies = snapshot.get("anomalies") or []
    n_anoms = snapshot.get("n_anomalies", len(anomalies))
    if n_anoms:
        lines.append(f"-- anomalies ({n_anoms}) --")
        for event in anomalies[-max_anomalies:]:
            lines.append(
                f"  {event.get('t', 0.0):.4f}s  {event.get('rule', '?')}"
                f"  {event.get('target', '?')}: {event.get('detail', '')}"
            )
    if n_torn or partial_tail:
        frags = []
        if n_torn:
            frags.append(f"{n_torn} torn line(s) skipped")
        if partial_tail:
            frags.append("unterminated tail buffered (run killed mid-write?)")
        lines.append(f"[stream] {'; '.join(frags)}")
    return "\n".join(lines) + "\n"


def _snapshot_with_feed(agg: OnlineAggregator) -> dict:
    """Aggregator snapshot plus the raw anomaly events for the feed."""
    snap = agg.snapshot()
    snap["anomalies"] = list(agg.anomalies)
    return snap


def watch_command(
    rundir: str,
    follow: bool = False,
    interval_s: float = 0.5,
    timeout_s: Optional[float] = None,
    out: Optional[Callable[[str], None]] = None,
    clear: bool = True,
) -> OnlineAggregator:
    """Tail ``rundir/events.jsonl`` and render the dashboard.

    One frame per poll that saw new events (always at least one frame).
    Without ``follow`` this renders the current state of the stream and
    returns — valid for live, completed and killed runs.  With ``follow``
    it keeps polling until the run's ``run_end`` event arrives, the
    ``result.json`` appears (post-hoc runs write no stream events), or
    ``timeout_s`` expires.  Returns the aggregator for inspection.
    """
    path = Path(rundir)
    if not (path / MANIFEST_FILENAME).exists() and not (
        path / EVENTS_FILENAME
    ).exists():
        raise FileNotFoundError(
            f"{rundir}: no manifest.json or events.jsonl — not a run directory"
        )
    emit = out if out is not None else sys.stdout.write
    tail = StreamTail(str(path / EVENTS_FILENAME))
    agg = OnlineAggregator()

    def frame() -> None:
        if clear and out is None:
            emit("\x1b[2J\x1b[H")
        emit(render_dashboard(
            _snapshot_with_feed(agg),
            rundir=str(rundir),
            n_torn=tail.n_torn,
            partial_tail=tail.pending_partial,
        ))

    deadline = None
    if timeout_s is not None:
        deadline = time.monotonic() + timeout_s
    rendered = False
    while True:
        for event in tail.poll():
            agg(event)
            rendered = False
        if not rendered:
            frame()
            rendered = True
        if not follow:
            return agg
        if agg.run_done or (path / RESULT_FILENAME).exists():
            # Drain anything written between the run_end flush and now.
            for event in tail.poll():
                agg(event)
            frame()
            return agg
        if deadline is not None and time.monotonic() >= deadline:
            emit(f"[stream] timeout after {timeout_s:.1f}s; run not finished\n")
            return agg
        time.sleep(interval_s)


def wait_for_run_end(
    rundir: str,
    timeout_s: Optional[float] = None,
    interval_s: float = 0.5,
) -> bool:
    """Block until ``rundir`` holds a finished run; True if it finished.

    Finished means ``result.json`` exists — the last artefact both the
    streamed and post-hoc paths write after the run body completes.  Used
    by ``repro report --follow`` to render the final report the moment a
    live run lands.
    """
    path = Path(rundir) / RESULT_FILENAME
    deadline = None
    if timeout_s is not None:
        deadline = time.monotonic() + timeout_s
    while not path.exists():
        if deadline is not None and time.monotonic() >= deadline:
            return False
        time.sleep(interval_s)
    return True
