"""``repro report``: summarize an instrumented run directory.

Reads the artefacts written by :func:`repro.obs.capture.run_traced` and
prints the audit views the paper's claims hinge on:

- **per-device energy shares** — the Fig. 5 breakdown for this run;
- **task distribution by GPU cap state** — how many tasks each GPU received
  given its H/B/L state, the observable form of "StarPU automatically sends
  fewer tasks to slower (capped) GPUs";
- **load-imbalance-vs-cap check** — asserts that more-capped GPUs received
  at most as many tasks as less-capped ones (H ≥ B ≥ L);
- **idle-gap detector** — per-worker scheduling holes larger than a
  threshold, the first thing to look at when a config underperforms;
- **decision-log audit** — replays every logged placement argmin and counts
  disagreements (zero means the log fully explains the schedule);
- **fault section** — for chaos run directories (``repro chaos --outdir``),
  injected-fault and recovery-action counts, degradation vs the fault-free
  baseline, the resilience audit verdict and the recovery annotations;
- **anomaly section** — watchdog anomalies found in a streamed
  ``events.jsonl`` (see :mod:`repro.obs.stream`).

Streamed run directories are first-class: a run that is still executing —
or was killed mid-flight — has a manifest and a (possibly torn) event
stream but no ``result.json`` yet.  The report renders what the stream
proves happened instead of crashing, and counts any torn lines it skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.reporting import format_table
from repro.core.runs import audit_passed
from repro.obs.decisions import DecisionLog
from repro.obs.exporters import (
    CHAOS_FILENAME,
    DECISIONS_FILENAME,
    EVENTS_FILENAME,
    FAULTS_FILENAME,
    RESULT_FILENAME,
    read_events_jsonl_tolerant,
)
from repro.obs.manifest import RunManifest
from repro.obs.stream import OnlineAggregator

#: Order of cap states from least to most capped.
STATE_SEVERITY = {"H": 0, "B": 1, "L": 2}


@dataclass
class IdleGap:
    worker: str
    start: float
    duration: float


@dataclass
class RunReport:
    """Parsed artefacts plus derived analysis for one run directory."""

    rundir: Path
    manifest: RunManifest
    #: ``None`` for a partial (in-flight or killed) streamed run.
    result: Optional[dict]
    decisions: Optional[DecisionLog] = None
    events: list[dict] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    chaos: Optional[dict] = None
    #: Torn/truncated JSONL lines skipped while loading the event stream.
    n_torn: int = 0

    # ------------------------------------------------------------- loading

    @classmethod
    def load(cls, rundir: str) -> "RunReport":
        path = Path(rundir)
        manifest = RunManifest.read(rundir)
        # A streamed run writes the manifest first and result.json last, so
        # a missing result means the run is still executing or was killed.
        result = None
        if (path / RESULT_FILENAME).exists():
            result = json.loads((path / RESULT_FILENAME).read_text())
        decisions = None
        if (path / DECISIONS_FILENAME).exists():
            decisions = DecisionLog.read_jsonl(str(path / DECISIONS_FILENAME))
        events: list[dict] = []
        n_torn = 0
        if (path / EVENTS_FILENAME).exists():
            events, n_torn = read_events_jsonl_tolerant(
                str(path / EVENTS_FILENAME)
            )
        faults: list[dict] = []
        if (path / FAULTS_FILENAME).exists():
            faults, skipped = read_events_jsonl_tolerant(
                str(path / FAULTS_FILENAME)
            )
            n_torn += skipped
        chaos = None
        if (path / CHAOS_FILENAME).exists():
            chaos = json.loads((path / CHAOS_FILENAME).read_text())
        return cls(path, manifest, result, decisions, events, faults, chaos,
                   n_torn)

    @property
    def partial(self) -> bool:
        """True when the run has not (yet) produced a ``result.json``."""
        return self.result is None

    # ------------------------------------------------------------ analysis

    def energy_shares(self) -> list[tuple[str, float, float]]:
        """(device, joules, share%) rows, devices in node order."""
        energies = self.result["energies_j"]
        total = sum(energies.values()) or 1.0
        return [(dev, j, 100.0 * j / total) for dev, j in energies.items()]

    def gpu_task_rows(self) -> list[tuple[str, str, str, float, int, float]]:
        """(worker, device, state, cap_W, tasks, share%) per GPU worker."""
        states = self.manifest.gpu_states
        caps = {f"gpu{i}": w for i, w in enumerate(self.manifest.gpu_caps_w)}
        worker_tasks = self.result["worker_tasks"]
        n_tasks = self.result["n_tasks"] or 1
        rows = []
        for worker, count in worker_tasks.items():
            if not worker.startswith("gpu"):
                continue
            device = f"gpu{worker.removeprefix('gpu-w')}"
            rows.append((
                worker, device, states.get(device, "?"),
                caps.get(device, 0.0), count, 100.0 * count / n_tasks,
            ))
        return rows

    def state_distribution(self) -> list[tuple[str, int, int, float]]:
        """(state, n_gpus, tasks, tasks_per_gpu) aggregated per cap state,
        plus a final row aggregating the CPU workers."""
        per_state: dict[str, list[int]] = {}
        for _, _, state, _, count, _ in self.gpu_task_rows():
            per_state.setdefault(state, []).append(count)
        rows = [
            (state, len(counts), sum(counts), sum(counts) / len(counts))
            for state, counts in sorted(
                per_state.items(), key=lambda kv: STATE_SEVERITY.get(kv[0], 9)
            )
        ]
        cpu_counts = [
            count for worker, count in self.result["worker_tasks"].items()
            if worker.startswith("cpu")
        ]
        if cpu_counts:
            rows.append(
                ("cpu", len(cpu_counts), sum(cpu_counts),
                 sum(cpu_counts) / len(cpu_counts))
            )
        return rows

    def imbalance_check(self) -> tuple[bool, list[str]]:
        """Do more-capped GPUs receive at most as many tasks as less-capped
        ones?  This is the paper's fewer-tasks-to-capped-GPUs mechanism."""
        gpu_rows = {state: per_gpu for state, _, _, per_gpu
                    in self.state_distribution() if state in STATE_SEVERITY}
        ordered = sorted(gpu_rows, key=STATE_SEVERITY.__getitem__)
        notes: list[str] = []
        ok = True
        for faster, slower in zip(ordered, ordered[1:]):
            if gpu_rows[slower] <= gpu_rows[faster]:
                notes.append(
                    f"OK: {slower}-capped GPUs averaged {gpu_rows[slower]:.1f} "
                    f"tasks vs {gpu_rows[faster]:.1f} on {faster} "
                    "(capped GPUs receive fewer tasks)"
                )
            else:
                ok = False
                notes.append(
                    f"VIOLATION: {slower}-capped GPUs averaged "
                    f"{gpu_rows[slower]:.1f} tasks vs {gpu_rows[faster]:.1f} "
                    f"on {faster}"
                )
        if len(ordered) < 2:
            notes.append(
                "single cap state; nothing to compare "
                f"(config {self.manifest.config})"
            )
        return ok, notes

    def idle_gaps(self, threshold_s: Optional[float] = None) -> list[IdleGap]:
        """Scheduling holes per worker, sorted longest first.

        A gap is idle time between consecutive task intervals on one worker
        within the run's busy window.  Default threshold: 2 % of the
        makespan (never below 10 µs).
        """
        busy: dict[str, list[tuple[float, float]]] = {}
        for event in self.events:
            if event.get("type") == "interval" and event.get("kind") == "task":
                busy.setdefault(event["resource"], []).append(
                    (event["t"], event["end"])
                )
        if not busy:
            return []
        window_end = max(end for spans in busy.values() for _, end in spans)
        window_start = min(t for spans in busy.values() for t, _ in spans)
        if threshold_s is None:
            threshold_s = max(1e-5, 0.02 * (window_end - window_start))
        gaps: list[IdleGap] = []
        for worker, spans in busy.items():
            spans.sort()
            cursor = window_start
            for start, end in spans:
                if start - cursor > threshold_s:
                    gaps.append(IdleGap(worker, cursor, start - cursor))
                cursor = max(cursor, end)
            if window_end - cursor > threshold_s:
                gaps.append(IdleGap(worker, cursor, window_end - cursor))
        gaps.sort(key=lambda g: -g.duration)
        return gaps

    def decision_audit(self) -> dict:
        """Replay every decision; summarize consistency and coverage."""
        if self.decisions is None or len(self.decisions) == 0:
            return {"n_decisions": 0, "n_mismatches": 0, "covers_all_tasks": False}
        mismatches = self.decisions.verify_replay()
        mean_classes = sum(
            len(r.candidates) for r in self.decisions
        ) / len(self.decisions)
        # Distinct tids, not record count: a task aborted by fault recovery
        # is decided again on resubmission, so retries add records without
        # adding coverage.
        return {
            "n_decisions": len(self.decisions),
            "n_mismatches": len(mismatches),
            "mismatched_labels": [r.label for r in mismatches[:10]],
            "mean_candidate_classes": mean_classes,
            "covers_all_tasks": (
                self.result is not None
                and len({r.tid for r in self.decisions})
                == self.result["n_tasks"]
            ),
            "by_worker": self.decisions.by_worker(),
        }

    def fault_summary(self) -> dict:
        """Injected-fault and recovery-action counts from ``faults.jsonl``."""
        # Lazy import: repro.faults pulls in the runtime; the report must
        # stay loadable for fault-free run directories regardless.
        from repro.faults.plan import FAULT_KINDS

        injected: dict[str, int] = {}
        actions: dict[str, int] = {}
        for rec in self.faults:
            kind = rec.get("kind", "?")
            bucket = (
                injected
                if kind in FAULT_KINDS or kind.endswith("-clear")
                else actions
            )
            bucket[kind] = bucket.get(kind, 0) + 1
        return {"injected": injected, "actions": actions}

    def anomalies(self) -> list[dict]:
        """Watchdog anomaly events found in the loaded stream, time-ordered."""
        found = [e for e in self.events if e.get("type") == "anomaly"]
        found.sort(key=lambda e: e.get("t", 0.0))
        return found

    def stream_summary(self) -> dict:
        """Replay the loaded events through the online aggregator.

        This is how a partial run is summarized: the aggregator sees exactly
        what a live ``repro watch`` would have seen, so the numbers agree.
        """
        agg = OnlineAggregator()
        for event in self.events:
            agg(event)
        return agg.snapshot()

    # ----------------------------------------------------------- rendering

    def header(self) -> str:
        m = self.manifest
        caps = ", ".join(
            f"{dev}={state}@{cap:.0f}W"
            for (dev, state), cap in zip(m.gpu_states.items(), m.gpu_caps_w)
        )
        lines = [
            f"run: {self.rundir}",
            f"platform {m.platform}  op {m.op}-{m.precision} N={m.n} NB={m.nb}"
            f"  scheduler {m.scheduler}  seed {m.seed}  scale {m.scale}",
            f"config {m.config}  ({caps})  version {m.version or 'unknown'}",
        ]
        if self.result is not None:
            lines.append(
                f"makespan {self.result['makespan_s']:.4f}s"
                f"  {self.result['gflops']:.1f} Gflop/s"
                f"  {self.result['total_energy_j']:.1f} J"
                f"  {self.result['gflops_per_watt']:.2f} Gflop/s/W"
            )
        else:
            lines.append(
                "[stream] partial run — no result.json "
                "(run still active or killed)"
            )
        return "\n".join(lines) + "\n"

    def render(self, max_gaps: int = 8) -> str:
        if self.partial:
            return self._render_partial(max_gaps=max_gaps)
        parts = [self.header(), "\n"]
        parts.append(format_table(
            ["device", "energy_J", "share_pct"],
            [(d, round(j, 1), round(s, 1)) for d, j, s in self.energy_shares()],
            title="[energy] per-device energy shares",
        ))
        parts.append("\n")
        parts.append(format_table(
            ["worker", "device", "cap_state", "cap_W", "tasks", "share_pct"],
            [(w, d, st, round(c, 0), n, round(s, 1))
             for w, d, st, c, n, s in self.gpu_task_rows()],
            title="[tasks] GPU task distribution",
        ))
        parts.append(format_table(
            ["cap_state", "n_workers", "tasks", "tasks_per_worker"],
            [(st, n, total, round(per, 1))
             for st, n, total, per in self.state_distribution()],
            title="[tasks] distribution by cap state",
        ))
        ok, notes = self.imbalance_check()
        parts.append("[check] load imbalance vs cap\n")
        for note in notes:
            parts.append(f"  {note}\n")
        parts.append("\n")
        gaps = self.idle_gaps()
        if gaps:
            parts.append(format_table(
                ["worker", "gap_start_s", "gap_s"],
                [(g.worker, round(g.start, 4), round(g.duration, 4))
                 for g in gaps[:max_gaps]],
                title=f"[idle] {len(gaps)} idle gaps above threshold"
                      f" (top {min(max_gaps, len(gaps))})",
            ))
        else:
            parts.append("[idle] no idle gaps above threshold\n")
        if self.manifest.cache:
            c = self.manifest.cache
            fp = str(c.get("fingerprint", ""))[:12]
            parts.append(
                f"[cache] {c.get('hits', 0)} hits, {c.get('misses', 0)} misses"
                f" (dir {c.get('dir', '?')}, code {fp or 'unknown'})\n"
            )
        audit = self.decision_audit()
        parts.append("[decisions] ")
        if audit["n_decisions"] == 0:
            parts.append("no decision log in this run directory\n")
        else:
            parts.append(
                f"{audit['n_decisions']} decisions, "
                f"{audit['n_mismatches']} replay mismatches, "
                f"{audit['mean_candidate_classes']:.1f} candidate classes/decision, "
                f"covers all tasks: {audit['covers_all_tasks']}\n"
            )
        if self.faults or self.chaos is not None:
            parts.append(self._render_faults())
        parts.append(self._render_anomalies())
        parts.append(self._torn_warning())
        return "".join(parts)

    def _render_partial(self, max_gaps: int = 8) -> str:
        """Report for a run directory with no result.json yet: everything
        the streamed prefix of ``events.jsonl`` proves happened."""
        parts = [self.header(), "\n"]
        snap = self.stream_summary()
        expected = snap["n_tasks_expected"]
        progress = f"{snap['tasks_done']}"
        if expected:
            progress += f"/{expected} ({100.0 * snap['tasks_done'] / expected:.0f}%)"
        parts.append(
            f"[stream] {snap['n_events']} events read"
            f"  sim clock {snap['t']:.4f}s\n"
            f"[stream] tasks completed: {progress}"
            f"  p50 {snap['task_p50_s'] * 1e3:.2f}ms"
            f"  p99 {snap['task_p99_s'] * 1e3:.2f}ms\n"
        )
        if snap["power_w"]:
            devices = "  ".join(
                f"{dev}={w:.0f}W" for dev, w in sorted(snap["power_w"].items())
            )
            parts.append(
                f"[stream] last power sample: total {snap['total_power_w']:.0f}W"
                f"  ({devices})\n"
            )
        if snap["cache_lookups"]:
            rate = snap["cache_hit_rate"]
            parts.append(
                f"[stream] cache: {snap['cache_lookups']} lookups, "
                f"hit rate {rate:.0%} (rolling window)\n"
            )
        if snap["n_faults"]:
            parts.append(f"[stream] faults observed: {snap['n_faults']}\n")
        parts.append("\n")
        gaps = self.idle_gaps()
        if gaps:
            parts.append(format_table(
                ["worker", "gap_start_s", "gap_s"],
                [(g.worker, round(g.start, 4), round(g.duration, 4))
                 for g in gaps[:max_gaps]],
                title=f"[idle] {len(gaps)} idle gaps above threshold"
                      f" (top {min(max_gaps, len(gaps))})",
            ))
        parts.append(self._render_anomalies())
        parts.append(self._torn_warning())
        return "".join(parts)

    def _render_anomalies(self, limit: int = 12) -> str:
        """The ``[anomalies]`` feed: watchdog events from the stream."""
        found = self.anomalies()
        if not found:
            return ""
        parts = [f"[anomalies] {len(found)} watchdog anomalies\n"]
        for event in found[:limit]:
            parts.append(
                f"  {event.get('t', 0.0):.4f}s  {event.get('rule', '?')}"
                f"  {event.get('target', '?')}: {event.get('detail', '')}\n"
            )
        if len(found) > limit:
            parts.append(f"  ... and {len(found) - limit} more\n")
        return "".join(parts)

    def _torn_warning(self) -> str:
        if not self.n_torn:
            return ""
        return (
            f"[stream] skipped {self.n_torn} torn line(s) "
            "(truncated mid-write; expected for killed or in-flight runs)\n"
        )

    def _render_faults(self) -> str:
        """The ``[faults]`` section for chaos run directories."""
        parts: list[str] = []
        summary = self.fault_summary()
        injected = ", ".join(
            f"{kind} x{n}" for kind, n in sorted(summary["injected"].items())
        ) or "none"
        actions = ", ".join(
            f"{kind} x{n}" for kind, n in sorted(summary["actions"].items())
        ) or "none"
        parts.append(f"[faults] injected: {injected}\n")
        parts.append(f"[faults] recovery: {actions}\n")
        if self.chaos is not None:
            deg = self.chaos["degradation"]
            parts.append(
                f"[faults] degradation vs fault-free baseline: "
                f"makespan {deg['makespan_pct']:+.2f} %, "
                f"energy {deg['energy_pct']:+.2f} %\n"
            )
            ok = audit_passed(self.chaos["audit"])
            parts.append(f"[faults] resilience audit: {'PASS' if ok else 'FAIL'}\n")
        if self.decisions is not None:
            for ann in self.decisions.annotations:
                parts.append(f"  {ann['t']:.4f}s  {ann['text']}\n")
        return "".join(parts)


def render_report(rundir: str, max_gaps: int = 8) -> str:
    """Load a run directory and render the full text report."""
    return RunReport.load(rundir).render(max_gaps=max_gaps)
