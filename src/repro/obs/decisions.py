"""Structured scheduler decision log.

Every placement decision of the dm-family schedulers can be captured as a
:class:`DecisionRecord`: the candidate equivalence classes with their cost
terms (duration estimate, transfer penalty, energy term), each member
worker's backlog at decision time, and the worker that won.  The record
holds everything needed to *replay* the argmin offline —
:meth:`DecisionRecord.replay_choice` recomputes the winner from the logged
terms with the same left-to-right float fold and first-wins tie-break the
scheduler uses, so a log can prove why every task went where it went.

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

#: One decision record as ``json.dumps(rec.to_record())`` spells it, with
#: its candidate classes rendered into the last field.
_RECORD_FMT = (
    '{"tid": %d, "label": %s, "kind": %s, "time": %s, "priority": %d, '
    '"chosen": %s, "chosen_cost": %s, "candidates": [%s]}\n'
)

#: One candidate class: its header (up to ``"backlogs": [``), then the
#: bodies of its three float lists.
_CANDIDATE_FMT = '%s%s], "terms": [%s], "costs": [%s]}'

#: Errors of a fast-path render that ``json.dumps`` may still spell (or
#: must raise itself): a value of the wrong type, a non-finite number, an
#: int too large for a double, a record of the wrong shape.
_FALLBACK = (TypeError, ValueError, OverflowError, struct.error)


def _float_list(values, memo: list, packers: dict) -> str:
    """The body of ``json.dumps(list(values))`` for a tuple of floats.

    ``memo`` holds the last tuple rendered for this slot as its packed
    doubles, element types and text; a tuple with the same bits and the
    same types reuses the text.  Bits, not ``==``: ``-0.0 == 0.0`` but
    the two spell differently, and an int equal to a float spells
    without the ``.0``.  Raises one of :data:`_FALLBACK` for anything but
    finite floats (a repr with an ``n``: ``nan``, ``inf``), never
    memoised, so the record goes through ``json.dumps``.  ``packers``
    caches a ``struct`` packer per tuple length.
    """
    pack = packers.get(len(values))
    if pack is None:
        pack = packers[len(values)] = struct.Struct("%dd" % len(values)).pack
    bits = pack(*values)
    types = tuple(map(type, values))
    if bits == memo[0] and types == memo[1]:
        return memo[2]
    text = ", ".join(map(float.__repr__, values))
    if "n" in text:
        raise ValueError("not finite")
    memo[:] = bits, types, text
    return text


def _record_line(rec: "DecisionRecord", classes: dict, packers: dict) -> str:
    """``json.dumps(rec.to_record()) + "\\n"``, rendering what repeats once.

    ``classes`` maps each class key to its rendered header and the memos
    of its three float lists (see :func:`_float_list`).  A class's header
    is reused while the record carries the very same key, worker and
    index objects (the scheduler's per-class constants), and rendered by
    ``json.dumps`` otherwise.
    """
    tid, label, kind, time, chosen, chosen_cost, candidates, priority = rec
    if type(tid) is not int or type(priority) is not int:
        raise TypeError("not an int")
    parts = []
    for class_key, workers, indices, backlogs, terms, costs in candidates:
        state = classes.get(class_key)
        if state is None:
            # The key, workers and indices the header was rendered from,
            # the header, then the backlogs, terms and costs memos.
            state = classes[class_key] = [None, None, None, None,
                                          [None] * 3, [None] * 3, [None] * 3]
        if state[0] is not class_key or state[1] is not workers or state[2] is not indices:
            state[:4] = class_key, workers, indices, (
                '{"class": %s, "workers": %s, "indices": %s, "backlogs": ['
                % (json.dumps(class_key), json.dumps(list(workers)),
                   json.dumps(list(indices)))
            )
        parts.append(_CANDIDATE_FMT % (
            state[3], _float_list(backlogs, state[4], packers),
            _float_list(terms, state[5], packers),
            _float_list(costs, state[6], packers),
        ))
    time_text = float.__repr__(time)
    cost_text = float.__repr__(chosen_cost)
    if "n" in time_text or "n" in cost_text:
        raise ValueError("not finite")
    return _RECORD_FMT % (
        tid, _json_str(label), _json_str(kind), time_text, priority,
        _json_str(chosen), cost_text, ", ".join(parts),
    )


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
        best: Optional[str] = None
        best_cost = math.inf
        best_index = -1
        for cand in self.candidates:
            for member, (index, worker) in enumerate(zip(cand.indices, cand.workers)):
                cost = cand.cost_of(member)
                if cost < best_cost or (cost == best_cost and index < best_index):
                    best, best_cost, best_index = worker, cost, index
        if best is None:
            raise ValueError(f"decision for task {self.label!r} has no candidates")
        return best, best_cost

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
    """Append-only sink for placement decisions."""

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
        self.records: list[DecisionRecord] = []
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

    def append(self, record: DecisionRecord) -> None:
        self.records.append(record)
        bus = self.bus
        if bus is not None:
            t = record.time
            if t - self._last_stream_t < self.STREAM_PERIOD_S:
                return
            self._last_stream_t = t
            bus.publish({
                "t": t,
                "type": "decision",
                "label": record.label,
                "kind": record.kind,
                "chosen": record.chosen,
                "cost": record.chosen_cost,
                "backlog": record.backlog_snapshot(),
            })

    def annotate(self, time: float, text: str, **data) -> None:
        """Attach a timestamped note (e.g. a fault-recovery action)."""
        self.annotations.append({"t": time, "text": text, **data})
        if self.bus is not None:
            self.bus.publish({"t": time, "type": "annotation", "text": text, **data})

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def by_worker(self) -> dict[str, int]:
        """Chosen-task counts per worker."""
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.chosen] = out.get(rec.chosen, 0) + 1
        return out

    def verify_replay(self) -> list[DecisionRecord]:
        """Records whose replayed argmin disagrees with the logged choice."""
        return [r for r in self.records if r.replay_choice()[0] != r.chosen]

    # ------------------------------------------------------------------- io

    def write_jsonl(self, path: str) -> None:
        """One ``json.dumps(rec.to_record())`` line per record, then the
        annotations, written :data:`WRITE_CHUNK_RECORDS` lines at a time.

        The bytes are ``json.dumps``'s, but a governed run's records
        mostly repeat themselves: each placement class carries the same
        label, workers and indices in every record, and its backlogs,
        terms and costs often equal the previous record's.  So
        :func:`_record_line` renders each class header once and reuses a
        class's last float-list text while the bits and types are
        unchanged.  A record it cannot spell (a non-finite number, an int
        or bool where a float belongs, a non-``int`` tid) goes through
        ``json.dumps(rec.to_record())``, the oracle.
        """
        lines = self._lines()
        with open(path, "w") as fh:
            while batch := list(islice(lines, WRITE_CHUNK_RECORDS)):
                fh.write("".join(batch))

    def _lines(self) -> Iterator[str]:
        classes: dict = {}
        packers: dict = {}
        for rec in self.records:
            try:
                yield _record_line(rec, classes, packers)
            except _FALLBACK:
                yield json.dumps(rec.to_record()) + "\n"
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
