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
import struct
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, Iterator, NamedTuple, Optional

from repro.obs.stream import EVAL_PERIOD_S

#: Lines per ``write`` in :meth:`DecisionLog.write_jsonl`: enough to
#: amortise the call, few enough that the writer never holds the file.
WRITE_CHUNK_RECORDS = 256

#: Most float texts :meth:`DecisionLog.write_jsonl` keeps for reuse in a
#: plain log (see :class:`_Renderer`); the memo starts over when full.  A
#: value mostly recurs soon after it was last written (an unchanged
#: backlog, the estimate of a kernel), so a small memo finds nearly all
#: the repeats a file-wide one would, and the writer's memory does not
#: grow with the log.  Without the memo a governed unit's file took ~40 %
#: longer to write.
TEXT_MEMO_SIZE = 1024

#: One decision record as ``json.dumps(rec.to_record())`` spells it, with
#: its candidate classes rendered into the last field.
_RECORD_FMT = (
    '{"tid": %d, "label": %s, "kind": %s, "time": %s, "priority": %d, '
    '"chosen": %s, "chosen_cost": %s, "candidates": [%s]}\n'
)

#: One candidate class after its header (which ends ``"backlogs": [``):
#: the bodies of its three float lists.
_CANDIDATE_FMT = '%s], "terms": [%s], "costs": [%s]}'

#: Values per ``struct.pack`` call in :func:`_plain`.
_PLAIN_CHUNK = 4096

#: Errors of a fast-path render that ``json.dumps`` may still spell (or
#: must raise itself): a value of the wrong type, a non-finite number.
_FALLBACK = (TypeError, ValueError)


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
        """Each worker's ``(times, backlogs)`` columns, in decision order.

        A worker gets a sample at every decision that priced its class,
        once per class naming it, in class order.  A run of decisions that
        price the same classes of one table holds each worker's backlog at
        one stride in the snapshots, so the run's column is one slice.
        """
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
        return columns

    # ------------------------------------------------------------------- io

    def write_jsonl(self, path: str) -> None:
        """One ``json.dumps(rec.to_record())`` line per record, then the
        annotations, written :data:`WRITE_CHUNK_RECORDS` lines at a time.

        The bytes are ``json.dumps``'s, rendered straight from the
        columns (see :class:`_Renderer`): a class's text is reused while
        its backlogs, terms and verbatim costs are unchanged, so a folded
        class's costs are folded only when its text changes, and a float
        seen recently reuses its text.  A log holding an int, a bool, a
        float subclass or a negative number where a float belongs is
        rendered without that reuse.  A record it cannot spell (a
        non-finite number, an int or bool where a float belongs, a
        non-``int`` tid) goes through ``json.dumps(rec.to_record())``,
        the oracle.
        """
        lines = self._lines()
        with open(path, "w") as fh:
            while batch := list(islice(lines, WRITE_CHUNK_RECORDS)):
                fh.write("".join(batch))

    def _lines(self) -> Iterator[str]:
        render = _Renderer(self)
        for d in range(len(self._tid)):
            try:
                yield render.line(d)
            except _FALLBACK:
                yield json.dumps(self._record(d).to_record()) + "\n"
        for ann in self.annotations:
            yield json.dumps({"type": "annotation", **ann}) + "\n"

    @classmethod
    def read_jsonl(cls, path: str) -> "DecisionLog":
        log = cls()
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
                else:
                    log.append(DecisionRecord.from_record(rec))
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


def _plain(values: list) -> bool:
    """Whether every value is an exact ``float`` with its sign bit clear.

    Two such values are ``==`` exactly when they spell the same: no int
    or bool equals a float, and no ``-0.0`` equals ``0.0``.  A NaN never
    equals anything, and spells with an ``n``.  The sign bits are read
    off the packed doubles, a chunk at a time so the copy stays small.
    """
    if not set(map(type, values)) <= {float}:
        return False
    for lo in range(0, len(values), _PLAIN_CHUNK):
        part = values[lo:lo + _PLAIN_CHUNK]
        if max(struct.pack("<%dd" % len(part), *part)[7::8]) >= 0x80:
            return False
    return True


class _Renderer:
    """One :meth:`DecisionLog.write_jsonl` pass over the columns.

    Numbers are spelled by ``float.__repr__``, as ``json.dumps`` spells a
    float; it raises on an int or a bool.  A log is *plain* when all its
    numbers are exact floats with a clear sign bit (see :func:`_plain`),
    which is what a scheduler logs.  Then two numbers are ``==`` exactly
    when they spell the same, and two memos apply:

    - ``classes`` maps ``id(row)`` (the log's tables keep every row
      alive) to the backlogs, terms and verbatim costs the class was
      last rendered from, that text, and the shape (list lengths) and
      ``%`` template of its text.  A class whose values are ``==`` to
      those reuses its text, costs included, so a folded class is folded
      only when its text changes.
    - ``texts`` maps up to :data:`TEXT_MEMO_SIZE` floats rendered so far
      to their text.

    A log that is not plain keeps the templates but neither memo.  A
    decision :meth:`line` cannot spell raises one of :data:`_FALLBACK`
    (a non-``int`` tid, a non-``str`` label, a non-float number, a
    number that is not finite: its repr has an ``n``).
    """

    def __init__(self, log: "DecisionLog") -> None:
        self.log = log
        self.plain = all(map(_plain, (
            log._backlogs, log._terms, log._costs, log._time, log._chosen_cost,
        )))
        self.classes: dict[int, list] = {}
        self.texts: dict[float, str] = {}

    def line(self, d: int) -> str:
        """Decision ``d``'s line, as ``json.dumps(rec.to_record()) + "\\n"``."""
        log = self.log
        tid, priority = log._tid[d], log._priority[d]
        if type(tid) is not int or type(priority) is not int:
            raise TypeError("not an int")
        table = log._table[d]
        folded = table is not log._rows
        snap, b0 = log._backlogs, log._snap_at[d]
        all_terms, terms_at = log._terms, log._terms_at
        all_costs, costs_at = log._costs, log._costs_at
        keys = log._class
        candidate = self.candidate
        parts = []
        for c in range(log._classes_at[d], log._classes_at[d + 1]):
            row = table[keys[c]]
            parts.append(candidate(
                row, _members(snap, b0, row[3]),
                all_terms[terms_at[c]:terms_at[c + 1]],
                None if folded else all_costs[costs_at[c]:costs_at[c + 1]],
            ))
        get, new = self.texts.get, self._new
        time, cost = log._time[d], log._chosen_cost[d]
        return _RECORD_FMT % (
            tid, _json_str(log._label[d]), _json_str(log._kind[d]),
            get(time) or new(time), priority, _json_str(log._chosen[d]),
            get(cost) or new(cost), ", ".join(parts),
        )

    def candidate(self, row: tuple, backlogs: list, terms: list,
                  costs: Optional[list]) -> str:
        """One candidate class's JSON text.  ``costs`` is ``None`` for a
        folded class: each backlog with the terms added left to right."""
        state = self.classes.get(id(row))
        if state is None:
            state = self.classes[id(row)] = [None] * 6
        elif (self.plain and backlogs == state[0] and terms == state[1]
              and costs == state[2]):
            return state[3]
        listed = costs
        if listed is None:
            listed = backlogs
            for term in terms:
                listed = [cost + term for cost in listed]
        shape = (len(backlogs), len(terms), len(listed))
        if state[4] != shape:
            state[4], state[5] = shape, _candidate_format(row, *shape)
        get, new = self.texts.get, self._new
        text = state[5] % tuple([get(v) or new(v) for v in backlogs + terms + listed])
        state[:4] = backlogs, terms, costs, text
        return text

    def _new(self, value: float) -> str:
        text = float.__repr__(value)
        if "n" in text:
            raise ValueError("not finite")
        if self.plain:
            texts = self.texts
            if len(texts) >= TEXT_MEMO_SIZE:
                texts.clear()
            texts[value] = text
        return text


def _candidate_format(row: tuple, n_backlogs: int, n_terms: int, n_costs: int) -> str:
    """The ``%`` template of one candidate class's JSON text: the row's
    header, then a ``%s`` per number, as ``json.dumps`` lays them out."""
    class_key, workers, indices, _ = row
    header = '{"class": %s, "workers": %s, "indices": %s, "backlogs": [' % (
        json.dumps(class_key), json.dumps(list(workers)), json.dumps(list(indices))
    )
    lists = tuple(", ".join(["%s"] * n) for n in (n_backlogs, n_terms, n_costs))
    return header.replace("%", "%%") + _CANDIDATE_FMT % lists
