"""Performance models: history-based with a regression fallback.

StarPU estimates per-(codelet, architecture) execution times from calibration
runs; the models are recalibrated after every power-cap change, which is the
mechanism that *implicitly informs the scheduler* of each GPU's capped speed
(paper Sec. III-B).  We reproduce the protocol: before an experiment run, the
engine draws a handful of noisy samples of every distinct tile kernel on
every architecture — under the caps currently applied — and seeds the history
model with them.

The regression model fits ``log t = log a + b log nb`` per (kind, precision,
arch) and answers for tile sizes never calibrated, like StarPU's
``NL``-regression models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.kernels.tile_kernels import TileOp

#: Key identifying a codelet instance for modelling purposes.
ModelKey = tuple[str, int, str]  # (kind, nb, precision)


def model_key(op: TileOp) -> ModelKey:
    # TileOp precomputes its identity tuple; fall back for op-like stubs.
    key = getattr(op, "key", None)
    return key if key is not None else (op.kind, op.nb, op.precision)


@dataclass
class _Stats:
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @property
    def variance(self) -> float:
        return self.m2 / (self.n - 1) if self.n > 1 else 0.0


class HistoryModel:
    """Per-(key, arch) running mean of observed durations.

    With ``ewma_alpha`` set, estimates use an exponentially weighted moving
    average instead of the global mean — the right choice under *dynamic*
    power capping, where a device's speed changes mid-run and old samples
    mislead (cf. the paper's future work on dynamic capping).
    """

    def __init__(self, ewma_alpha: Optional[float] = None) -> None:
        if ewma_alpha is not None and not 0.0 < ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self.ewma_alpha = ewma_alpha
        self._stats: dict[tuple[ModelKey, str], _Stats] = {}
        self._ewma: dict[tuple[ModelKey, str], float] = {}

    def record(self, key: ModelKey, arch: str, duration: float) -> None:
        # One chained comparison rejects <= 0, NaN and inf alike.
        if not 0.0 < duration < math.inf:
            raise ValueError(f"durations must be positive and finite, got {duration!r}")
        k = (key, arch)
        stats = self._stats.get(k)
        if stats is None:
            stats = self._stats[k] = _Stats()
        stats.add(duration)
        if self.ewma_alpha is not None:
            prev = self._ewma.get((key, arch))
            self._ewma[(key, arch)] = (
                duration if prev is None
                else (1 - self.ewma_alpha) * prev + self.ewma_alpha * duration
            )

    def estimate(self, key: ModelKey, arch: str) -> Optional[float]:
        if self.ewma_alpha is not None:
            est = self._ewma.get((key, arch))
            if est is not None:
                return est
        stats = self._stats.get((key, arch))
        return stats.mean if stats else None

    def nsamples(self, key: ModelKey, arch: str) -> int:
        stats = self._stats.get((key, arch))
        return stats.n if stats else 0

    def entries(self):
        return self._stats.items()

    def clear(self) -> None:
        self._stats.clear()
        self._ewma.clear()

    def drop_arch(self, arch: str) -> None:
        """Forget every sample recorded for one architecture."""
        stale = [k for k in self._stats if k[1] == arch]
        for k in stale:
            del self._stats[k]
            self._ewma.pop(k, None)


class RegressionModel:
    """``t = a * nb**b`` least-squares fit per (kind, precision, arch)."""

    def __init__(self, history: HistoryModel) -> None:
        self._history = history
        self._fits: dict[tuple[str, str, str], tuple[float, float]] = {}

    def refit(self) -> None:
        groups: dict[tuple[str, str, str], list[tuple[float, float]]] = {}
        for (key, arch), stats in self._history.entries():
            kind, nb, precision = key
            groups.setdefault((kind, precision, arch), []).append((nb, stats.mean))
        self._fits.clear()
        for gkey, pts in groups.items():
            if len({nb for nb, _ in pts}) < 2:
                continue
            x = np.log([nb for nb, _ in pts])
            y = np.log([t for _, t in pts])
            b, log_a = np.polyfit(x, y, 1)
            self._fits[gkey] = (math.exp(log_a), float(b))

    def estimate(self, key: ModelKey, arch: str) -> Optional[float]:
        kind, nb, precision = key
        fit = self._fits.get((kind, precision, arch))
        if fit is None:
            return None
        a, b = fit
        return a * nb**b


@dataclass
class PerfModelSet:
    """History model + regression fallback + a pessimistic default.

    Resolved estimates sit on the scheduler's placement hot path, so they
    are kept in one *row* per model key, indexed by :meth:`arch_slot`
    (``None`` where unresolved): the dm class scan fetches a task's
    :meth:`row` once per decision and calls :meth:`estimate` only for an
    empty slot.  :meth:`record` empties exactly the slot it refreshes,
    :meth:`invalidate_arch` one slot of every row, and wholesale model
    changes (:meth:`clear`, :meth:`enable_regression`) drop the rows.
    """

    history: HistoryModel = field(default_factory=HistoryModel)
    default_estimate_s: float = 1e-3
    _regression: Optional[RegressionModel] = None
    _rows: dict[ModelKey, list] = field(default_factory=dict, repr=False, compare=False)
    _slots: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    #: Estimate-cache traffic, exported by the observability layer.  A
    #: caller that reads a filled slot of a :meth:`row` adds its hits here.
    n_cache_hits: int = 0
    n_cache_misses: int = 0

    def arch_slot(self, arch: str) -> int:
        """The index of ``arch``'s entry in every row, assigned on first use."""
        slot = self._slots.get(arch)
        if slot is None:
            slot = self._slots[arch] = len(self._slots)
            for row in self._rows.values():
                row.append(None)
        return slot

    def row(self, op: TileOp) -> list:
        """``op``'s resolved estimates, indexed by :meth:`arch_slot`."""
        row = self._rows.get(op.key)
        if row is None:
            row = self._rows[op.key] = [None] * len(self._slots)
        return row

    def record(self, op: TileOp, arch: str, duration: float) -> None:
        key = op.key
        self.history.record(key, arch, duration)
        row = self._rows.get(key)
        if row is not None and arch in self._slots:
            row[self._slots[arch]] = None

    def estimate(self, op: TileOp, arch: str) -> float:
        key = op.key
        slot = self._slots.get(arch)
        row = self._rows.get(key)
        if slot is None or row is None:
            slot = self.arch_slot(arch)
            row = self.row(op)
        cached = row[slot]
        if cached is not None:
            self.n_cache_hits += 1
            return cached
        self.n_cache_misses += 1
        est = self.history.estimate(key, arch)
        if est is None and self._regression is not None:
            est = self._regression.estimate(key, arch)
        if est is None:
            est = self.default_estimate_s
        row[slot] = est
        return est

    def is_calibrated(self, op: TileOp, arch: str) -> bool:
        return self.history.nsamples(model_key(op), arch) > 0

    def enable_regression(self) -> None:
        self._regression = RegressionModel(self.history)
        self._regression.refit()
        self._rows.clear()

    def clear(self) -> None:
        self.history.clear()
        self._regression = None
        self._rows.clear()

    def invalidate_arch(self, arch: str) -> None:
        """Drop one architecture's history and estimates.

        Used by fault recovery when a device's observed speed diverges from
        the model (thermal throttle): stale samples would keep misleading the
        scheduler, so they are discarded before recalibration.
        """
        self.history.drop_arch(arch)
        if self._regression is not None:
            self._regression.refit()
        slot = self.arch_slot(arch)
        for row in self._rows.values():
            row[slot] = None
