"""Structured scheduler decision log.

Every placement decision of the dm-family schedulers can be captured as a
:class:`DecisionRecord`: the candidate equivalence classes with their cost
terms (duration estimate, transfer penalty, energy term), each member
worker's backlog at decision time, and the worker that won.  The record
holds everything needed to *replay* the argmin offline —
:meth:`DecisionRecord.replay_choice` recomputes the winner from the logged
terms with the same left-to-right float fold and first-wins tie-break the
scheduler uses, so a log can prove why every task went where it went.
A :class:`DecisionLog` keeps its decisions as flat columns and builds
records only when they are read.

The log is attached through ``Scheduler.decision_log`` (``None`` by
default); schedulers pay nothing when it is disabled.  With a telemetry bus
attached, the log also streams a sampled, compact ``decision`` event at the
watchdogs' evaluation cadence (:data:`repro.obs.stream.EVAL_PERIOD_S`).
"""

from __future__ import annotations

import json
import math
from itertools import islice, repeat
from operator import is_not
from typing import Any, Iterator, NamedTuple, Optional

from repro.obs.stream import EVAL_PERIOD_S

#: Lines per ``write`` in :meth:`DecisionLog.write_jsonl`: enough to
#: amortise the call, few enough that the writer never holds the file.
WRITE_CHUNK_RECORDS = 256


class CandidateClass(NamedTuple):
    """One placement equivalence class evaluated for a task.

    ``terms`` are the class's cost addends in fold order — ``terms[0]`` is
    the duration estimate, then (scheduler permitting) the transfer penalty
    and the energy term.  ``workers``/``indices``/``backlogs`` list the
    member workers in scan order with their queue backlog (seconds of
    estimated work) at decision time.  ``costs`` carries each member's
    folded cost exactly as the scheduler computed it; when empty it is
    reconstructed from ``backlogs`` and ``terms`` (bit-identical for the
    dm-family fast path, which uses the same left-to-right fold).

    A named tuple, not a frozen dataclass: one is built per class per
    logged decision, and a frozen dataclass pays ``object.__setattr__``
    for each field.
    """

    class_key: str
    workers: tuple[str, ...]
    indices: tuple[int, ...]
    backlogs: tuple[float, ...]
    terms: tuple[float, ...]
    costs: tuple[float, ...] = ()

    @property
    def estimate_s(self) -> float:
        return self.terms[0] if self.terms else 0.0

    @property
    def transfer_s(self) -> float:
        return self.terms[1] if len(self.terms) > 1 else 0.0

    def cost_of(self, member: int) -> float:
        """One member's placement cost: logged verbatim, or re-folded."""
        if self.costs:
            return self.costs[member]
        cost = self.backlogs[member]
        for term in self.terms:
            cost += term
        return cost


class DecisionRecord(NamedTuple):
    """One scheduler placement decision (a named tuple, like
    :class:`CandidateClass`)."""

    tid: int
    label: str
    kind: str
    time: float
    chosen: str
    chosen_cost: float
    candidates: tuple[CandidateClass, ...]
    priority: int = 0

    def replay_choice(self) -> tuple[str, float]:
        """Recompute ``(worker, cost)`` from the logged candidates.

        Reproduces the scheduler's scan exactly: classes in logged order,
        members folded left-to-right, strict ``<`` improvement with a
        lower-worker-index tie-break.
        """
        return _argmin(self.label, (
            (cand.workers, cand.indices, map(cand.cost_of, range(len(cand.indices))))
            for cand in self.candidates
        ))

    def backlog_snapshot(self) -> dict[str, float]:
        """Per-worker backlog at decision time (union over candidates)."""
        out: dict[str, float] = {}
        for cand in self.candidates:
            out.update(zip(cand.workers, cand.backlogs))
        return out

    def to_record(self) -> dict:
        return {
            "tid": self.tid,
            "label": self.label,
            "kind": self.kind,
            "time": self.time,
            "priority": self.priority,
            "chosen": self.chosen,
            "chosen_cost": self.chosen_cost,
            "candidates": [
                {
                    "class": c.class_key,
                    "workers": list(c.workers),
                    "indices": list(c.indices),
                    "backlogs": list(c.backlogs),
                    "terms": list(c.terms),
                    "costs": list(c.costs),
                }
                for c in self.candidates
            ],
        }

    @classmethod
    def from_record(cls, rec: dict) -> "DecisionRecord":
        return cls(
            tid=rec["tid"],
            label=rec["label"],
            kind=rec["kind"],
            time=rec["time"],
            priority=rec.get("priority", 0),
            chosen=rec["chosen"],
            chosen_cost=rec["chosen_cost"],
            candidates=tuple(
                CandidateClass(
                    class_key=c["class"],
                    workers=tuple(c["workers"]),
                    indices=tuple(c["indices"]),
                    backlogs=tuple(c["backlogs"]),
                    terms=tuple(c["terms"]),
                    costs=tuple(c.get("costs", ())),
                )
                for c in rec["candidates"]
            ),
        )


class DecisionLog:
    """Append-only sink for placement decisions, stored as flat columns.

    A governed run logs thousands of decisions, and an object per decision
    and per candidate class is what the cyclic GC walks at every
    collection.  So the log keeps none:

    - per decision, parallel lists of its scalars (tid, label, kind, time,
      priority, chosen worker and cost) and the *table* its classes index;
    - per logged class, its key in that table;
    - flat lists of values: every decision's backlog snapshot, every
      class's terms and every verbatim cost, each located by an offset
      list (``self._terms_at[i]:self._terms_at[i + 1]`` spans class
      ``i``'s terms).

    A table maps a class key to the row ``(class_key, workers, indices,
    slots)``, where ``slots`` locate the members' backlogs in their
    decision's snapshot: a ``range`` when they are consecutive, so that
    the members' backlogs are one slice, else a tuple.

    A class scan (:meth:`append_scan`) hands over the scheduler's own
    table of ``(class_key, workers, indices)`` rows, built once per
    change of its placement classes, the backlog list as the snapshot,
    and each class's terms.  The log gives that table its slots (the
    members' indices, which are their positions in the backlog list)
    once, when it first sees it.  Its member costs are not stored: each
    is the backlog and terms folded left to right
    (:meth:`CandidateClass.cost_of`), which is bit-identical to the
    scan's own fold.  A record given to
    :meth:`append` (the brute-force scan, :meth:`read_jsonl`, tests) goes
    into the same columns with its values as given: its backlogs make its
    snapshot, its costs are kept verbatim, and its classes go into the
    log's own table, ``self._rows``.  So a decision's costs are folded
    exactly when its table is not the log's own.

    The columns hold floats, ints, strs and bools, which the GC does not
    track, and references to a few tables, so the log holds the same
    number of tracked objects however many decisions it holds.
    :attr:`records` and iteration build :class:`DecisionRecord` views on
    demand.
    """

    #: Minimum simulated seconds between streamed ``decision`` events.
    #: The live stream carries a *sampled* backlog signal — dashboards and
    #: the backlog-imbalance watchdog consume "latest backlog", so one
    #: snapshot per sampling window is as informative as one per task,
    #: while per-decision snapshots (a ~n_workers dict built and
    #: serialized per task, ~19 µs measured) were the single largest
    #: line in the streaming overhead budget.  Every decision is still
    #: recorded in full post-hoc in ``decisions.jsonl``.  Matches the
    #: watchdogs' evaluation cadence (:data:`repro.obs.stream.EVAL_PERIOD_S`)
    #: — the only cadenced consumer of the backlog track — so sampling
    #: faster would add cost without adding information.
    STREAM_PERIOD_S = EVAL_PERIOD_S

    def __init__(self) -> None:
        # Per decision.
        self._tid: list = []
        self._label: list = []
        self._kind: list = []
        self._time: list = []
        self._priority: list = []
        self._chosen: list = []
        self._chosen_cost: list = []
        self._table: list = []
        self._snap_at = [0]
        self._classes_at = [0]
        # Per logged class.
        self._class: list = []
        self._terms_at = [0]
        self._costs_at = [0]
        # The values the offsets locate.
        self._backlogs: list = []
        self._terms: list = []
        self._costs: list = []
        #: The table of appended records' classes: a row per class.
        self._rows: list[tuple] = []
        #: The last scheduler table :meth:`append_scan` was handed, and
        #: that table with its slots.
        self._scan_table: Optional[dict] = None
        self._slotted: dict = {}
        #: Free-form timestamped notes interleaved with the decisions —
        #: fault recovery marks worker exclusions, re-admissions and
        #: recalibrations here so an audit can explain placement shifts.
        self.annotations: list[dict] = []
        #: Optional live-telemetry bus (:class:`repro.obs.stream.
        #: TelemetryBus`).  Appends publish a *compact* ``decision`` event —
        #: chosen worker, cost and the backlog snapshot — not the full
        #: candidate record, which stays post-hoc in ``decisions.jsonl`` —
        #: at most once per :data:`STREAM_PERIOD_S` of simulated time.
        self.bus: Any = None
        self._last_stream_t = -math.inf

    # -------------------------------------------------------------- writing

    def append_scan(self, task, time: float, chosen: str, chosen_cost: float,
                    table: dict, backlog: list, classes: list, terms: list,
                    ends: list) -> None:
        """Record one class-scan decision.

        ``table`` is the scheduler's ``(class_key, workers, indices)``
        row per class key (``Scheduler._placement_log_table``), ``backlog`` its
        position-indexed backlog list, copied as the snapshot, and
        ``classes`` the keys of the classes it priced, in scan order.
        Class ``i``'s terms are ``terms[ends[i - 1]:ends[i]]`` (from 0 for
        the first).  Member costs are folded when read.
        """
        self._tid.append(task.tid)
        self._label.append(task.label)
        self._kind.append(task.op.kind)
        self._time.append(time)
        self._priority.append(task.priority)
        self._chosen.append(chosen)
        self._chosen_cost.append(chosen_cost)
        if table is not self._scan_table:
            self._scan_table, self._slotted = table, _with_slots(table)
        self._table.append(self._slotted)
        snap = self._backlogs
        snap += backlog
        self._snap_at.append(len(snap))
        keys = self._class
        keys += classes
        self._classes_at.append(len(keys))
        all_terms = self._terms
        base = len(all_terms)
        all_terms += terms
        self._terms_at += [base + end for end in ends]
        self._costs_at += [len(self._costs)] * len(classes)
        if self.bus is not None and time - self._last_stream_t >= self.STREAM_PERIOD_S:
            snapshot: dict[str, float] = {}
            for key in classes:
                _, workers, indices = table[key]
                snapshot.update(zip(workers, map(backlog.__getitem__, indices)))
            self._publish(time, task.label, task.op.kind, chosen, chosen_cost, snapshot)

    def append(self, record: DecisionRecord) -> None:
        """Record one decision given whole, keeping its values as given."""
        tid, label, kind, time, chosen, chosen_cost, candidates, priority = record
        self._tid.append(tid)
        self._label.append(label)
        self._kind.append(kind)
        self._time.append(time)
        self._priority.append(priority)
        self._chosen.append(chosen)
        self._chosen_cost.append(chosen_cost)
        self._table.append(self._rows)
        snap, all_terms, all_costs = self._backlogs, self._terms, self._costs
        rows, base = self._rows, len(snap)
        for class_key, workers, indices, backlogs, terms, costs in candidates:
            lo = len(snap) - base
            snap += backlogs
            self._class.append(len(rows))
            rows.append((class_key, workers, indices, range(lo, len(snap) - base)))
            all_terms += terms
            self._terms_at.append(len(all_terms))
            all_costs += costs
            self._costs_at.append(len(all_costs))
        self._snap_at.append(len(snap))
        self._classes_at.append(len(self._class))
        if self.bus is not None and time - self._last_stream_t >= self.STREAM_PERIOD_S:
            self._publish(time, label, kind, chosen, chosen_cost,
                          record.backlog_snapshot())

    def _publish(self, time, label, kind, chosen, cost, backlog: dict) -> None:
        self._last_stream_t = time
        self.bus.publish({
            "t": time,
            "type": "decision",
            "label": label,
            "kind": kind,
            "chosen": chosen,
            "cost": cost,
            "backlog": backlog,
        })

    def annotate(self, time: float, text: str, **data) -> None:
        """Attach a timestamped note (e.g. a fault-recovery action)."""
        self.annotations.append({"t": time, "text": text, **data})
        if self.bus is not None:
            self.bus.publish({"t": time, "type": "annotation", "text": text, **data})

    # -------------------------------------------------------------- reading

    def __len__(self) -> int:
        return len(self._tid)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return map(self._record, range(len(self._tid)))

    @property
    def records(self) -> tuple[DecisionRecord, ...]:
        """Every decision as a :class:`DecisionRecord`, built now.

        A tuple: the records are a view of the columns, so a decision is
        added through :meth:`append`, not through this sequence.
        """
        return tuple(self)

    def _record(self, d: int) -> DecisionRecord:
        return DecisionRecord(
            self._tid[d], self._label[d], self._kind[d], self._time[d],
            self._chosen[d], self._chosen_cost[d], self._candidates(d),
            self._priority[d],
        )

    def _candidates(self, d: int) -> tuple[CandidateClass, ...]:
        return tuple([
            CandidateClass(row[0], row[1], row[2], tuple(backlogs), tuple(terms),
                           tuple(costs))
            for row, backlogs, terms, costs in self._classes(d)
        ])

    def _classes(self, d: int) -> Iterator[tuple]:
        """Decision ``d``'s ``(row, backlogs, terms, costs)`` per class:
        its costs verbatim, or folded when its table is not the log's own."""
        table = self._table[d]
        folded = table is not self._rows
        snap, b0 = self._backlogs, self._snap_at[d]
        terms_at, costs_at = self._terms_at, self._costs_at
        for c in range(self._classes_at[d], self._classes_at[d + 1]):
            row = table[self._class[c]]
            backlogs = _members(snap, b0, row[3])
            terms = self._terms[terms_at[c]:terms_at[c + 1]]
            if folded:
                costs = backlogs
                for term in terms:
                    costs = [cost + term for cost in costs]
            else:
                costs = self._costs[costs_at[c]:costs_at[c + 1]]
            yield row, backlogs, terms, costs

    def by_worker(self) -> dict[str, int]:
        """Chosen-task counts per worker."""
        out: dict[str, int] = {}
        for chosen in self._chosen:
            out[chosen] = out.get(chosen, 0) + 1
        return out

    def verify_replay(self) -> list[DecisionRecord]:
        """Records whose replayed argmin disagrees with the logged choice.

        Each decision is replayed from the columns by the argmin
        :meth:`DecisionRecord.replay_choice` runs, and a record is built
        only for a disagreement.
        """
        return [
            self._record(d) for d in range(len(self._tid))
            if _argmin(self._label[d], (
                (row[1], row[2], costs) for row, _, _, costs in self._classes(d)
            ))[0] != self._chosen[d]
        ]

    def backlog_columns(self) -> dict[str, tuple[list, list]]:
        """Each worker's ``(times, backlogs)`` columns, in decision order,
        at their change points (:func:`~repro.tools.chrometrace.change_points`).

        A worker is sampled at every decision that priced its class, once
        per class naming it, in class order, and a sample is kept where
        its backlog changes, with the worker's first and last.  A run of
        decisions that price the same classes of one table holds each
        worker's backlog at one stride in the snapshots, so the run's
        column is one slice.
        """
        from repro.tools.chrometrace import change_points

        columns: dict[str, tuple[list, list]] = {}
        times, tables, keys = self._time, self._table, self._class
        snap, snap_at, classes_at = self._backlogs, self._snap_at, self._classes_at
        n = len(times)
        d = 0
        while d < n:
            table = tables[d]
            width = snap_at[d + 1] - snap_at[d]
            run_keys = keys[classes_at[d]:classes_at[d + 1]]
            end = d + 1
            while (end < n and tables[end] is table
                   and snap_at[end + 1] - snap_at[end] == width
                   and keys[classes_at[end]:classes_at[end + 1]] == run_keys):
                end += 1
            members = [
                (worker, slot)
                for key in run_keys
                for worker, slot in zip(table[key][1], table[key][3])
            ]
            for worker, _ in members:
                if worker not in columns:
                    columns[worker] = ([], [])
            if len({worker for worker, _ in members}) == len(members):
                run_times = times[d:end]
                lo, hi = snap_at[d], snap_at[end]
                for worker, slot in members:
                    column = columns[worker]
                    column[0].extend(run_times)
                    column[1].extend(snap[lo + slot:hi:width])
            else:
                # A worker named twice in one decision: its samples
                # interleave, decision by decision.
                for i in range(d, end):
                    t, b0 = times[i], snap_at[i]
                    for worker, slot in members:
                        column = columns[worker]
                        column[0].append(t)
                        column[1].append(snap[b0 + slot])
            d = end
        return {worker: change_points(*column) for worker, column in columns.items()}

    # ------------------------------------------------------------------- io

    def write_jsonl(self, path: str) -> None:
        """Write the log, :data:`WRITE_CHUNK_RECORDS` lines at a time:
        one ``json.dumps`` line per decision, then the annotations.

        A decision that :meth:`append` recorded is written whole, as
        ``json.dumps(rec.to_record())``.  A class-scan decision is written
        compact, by reference to what the lines before it said:

        - its scalars, its class keys (``classes``), each class's terms
          (``terms``) and, under ``backlogs``, only the workers whose
          backlog does not repeat (:func:`~repro.tools.chrometrace.
          same_value`) the one last written for them;
        - before it, a class line ``{"class", "workers", "indices"}`` for
          each of its classes not yet written with that membership (a
          class's first decision, an exclusion, a re-admission).

        Member costs are not written: each is its backlog and terms folded
        left to right, which :meth:`read_jsonl` repeats bit for bit.  A
        scan decision whose table names a worker or a class key twice, or
        a name that is not a ``str``, is written whole.
        """
        lines = self._lines()
        with open(path, "w") as fh:
            while batch := list(islice(lines, WRITE_CHUNK_RECORDS)):
                fh.write("".join(batch))

    def _lines(self) -> Iterator[str]:
        from repro.tools.chrometrace import same_value

        dumps = json.dumps
        compact: dict[int, bool] = {}  # id(table): whether it goes compact
        shown: dict[str, tuple] = {}   # class key: (row, its class line)
        last: dict[str, Any] = {}      # worker: its backlog last seen
        tables, keys, snap = self._table, self._class, self._backlogs
        all_terms, terms_at = self._terms, self._terms_at
        for d in range(len(self._tid)):
            table = tables[d]
            ok = compact.get(id(table))
            if ok is None:
                ok = compact[id(table)] = table is not self._rows and _compact(table)
            if not ok:
                yield dumps(self._record(d).to_record()) + "\n"
                continue
            b0 = self._snap_at[d]
            classes, terms, changed = [], [], {}
            for c in range(self._classes_at[d], self._classes_at[d + 1]):
                row = table[keys[c]]
                class_key, workers, indices, slots = row
                seen = shown.get(class_key)
                if seen is None or seen[0] is not row:
                    line = dumps({"class": class_key, "workers": list(workers),
                                  "indices": list(indices)}) + "\n"
                    if seen is None or seen[1] != line:
                        yield line
                    shown[class_key] = row, line
                classes.append(class_key)
                terms.append(all_terms[terms_at[c]:terms_at[c + 1]])
                backlogs = _members(snap, b0, slots)
                prevs = list(map(last.get, workers, repeat(_UNSET)))
                if any(map(is_not, backlogs, prevs)):
                    for worker, backlog, prev in zip(workers, backlogs, prevs):
                        if prev is not backlog:
                            if not same_value(prev, backlog):
                                changed[worker] = backlog
                            last[worker] = backlog
            yield dumps({
                "tid": self._tid[d], "label": self._label[d], "kind": self._kind[d],
                "time": self._time[d], "priority": self._priority[d],
                "chosen": self._chosen[d], "chosen_cost": self._chosen_cost[d],
                "classes": classes, "terms": terms, "backlogs": changed,
            }) + "\n"
        for ann in self.annotations:
            yield dumps({"type": "annotation", **ann}) + "\n"

    @classmethod
    def read_jsonl(cls, path: str) -> "DecisionLog":
        """Read a log :meth:`write_jsonl` wrote, in either line shape.

        Class lines and compact decisions are read against a running row
        per class key and backlog per worker; every decision is
        :meth:`append`-ed whole, with its member costs folded from its
        backlogs and terms when the line does not carry them.
        """
        log = cls()
        rows: dict[str, tuple] = {}
        backlog: dict[str, Any] = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                if rec.get("type") == "annotation":
                    log.annotations.append(
                        {k: v for k, v in rec.items() if k != "type"}
                    )
                elif "candidates" in rec:
                    log.append(DecisionRecord.from_record(rec))
                elif "classes" in rec:
                    backlog.update(rec["backlogs"])
                    candidates = []
                    for class_key, terms in zip(rec["classes"], rec["terms"]):
                        workers, indices = rows[class_key]
                        costs = backlogs = [backlog[w] for w in workers]
                        for term in terms:
                            costs = [cost + term for cost in costs]
                        candidates.append(CandidateClass(
                            class_key, workers, indices, tuple(backlogs),
                            tuple(terms), tuple(costs),
                        ))
                    log.append(DecisionRecord(
                        rec["tid"], rec["label"], rec["kind"], rec["time"],
                        rec["chosen"], rec["chosen_cost"], tuple(candidates),
                        rec["priority"],
                    ))
                else:
                    rows[rec["class"]] = tuple(rec["workers"]), tuple(rec["indices"])
        return log


def _argmin(label: str, classes) -> tuple[str, float]:
    """The ``(worker, cost)`` a scan picks among ``(workers, indices,
    costs)`` classes: classes in order, members in order, strict ``<``
    improvement with a lower-worker-index tie-break."""
    best: Optional[str] = None
    best_cost = math.inf
    best_index = -1
    for workers, indices, costs in classes:
        for worker, index, cost in zip(workers, indices, costs):
            if cost < best_cost or (cost == best_cost and index < best_index):
                best, best_cost, best_index = worker, cost, index
    if best is None:
        raise ValueError(f"decision for task {label!r} has no candidates")
    return best, best_cost


def _with_slots(table: dict) -> dict:
    """A scheduler's table with each row's slots appended: the members'
    indices, as a ``range`` when they are consecutive."""
    out = {}
    for key, (class_key, workers, indices) in table.items():
        start = indices[0] if indices else 0
        slots = range(start, start + len(indices))
        out[key] = (class_key, workers, indices,
                    slots if tuple(slots) == indices else indices)
    return out


def _members(snap: list, base: int, slots) -> list:
    """A class's member backlogs: its ``slots`` in the snapshot that
    starts at ``snap[base]``."""
    if type(slots) is range:
        return snap[base + slots.start:base + slots.stop:slots.step]
    return [snap[base + s] for s in slots]


#: A worker not yet written in :meth:`DecisionLog.write_jsonl`.
_UNSET = object()


def _compact(table: dict) -> bool:
    """Whether a table's decisions can be written compact: its class keys
    and member names are ``str``, and none is named twice."""
    class_keys = [row[0] for row in table.values()]
    workers = [w for row in table.values() for w in row[1]]
    names = class_keys + workers
    return (set(map(type, names)) <= {str} and len(set(class_keys)) == len(class_keys)
            and len(set(workers)) == len(workers))
