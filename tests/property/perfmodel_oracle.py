"""Test-only oracle: the performance models before per-key estimate rows.

This is :class:`repro.runtime.perfmodel.PerfModelSet` as it was when its
resolved estimates were cached in one dict keyed by ``(model key, arch)``
tuples, with :meth:`record` popping exactly the entry it refreshed, and the
:class:`~repro.runtime.perfmodel.HistoryModel` it read.  It is kept,
unoptimised, so that property tests can run the same sequences of model
updates and reads through it and through :mod:`repro.runtime.perfmodel`
and demand bit-equal estimates and equal cache counters.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.runtime.perfmodel import ModelKey, RegressionModel, model_key


class _Stats:
    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.mean += (x - self.mean) / self.n


class OracleHistoryModel:
    """Per-(key, arch) running mean, or EWMA with ``ewma_alpha`` set."""

    def __init__(self, ewma_alpha: Optional[float] = None) -> None:
        self.ewma_alpha = ewma_alpha
        self._stats: dict[tuple[ModelKey, str], _Stats] = {}
        self._ewma: dict[tuple[ModelKey, str], float] = {}

    def record(self, key: ModelKey, arch: str, duration: float) -> None:
        if not 0.0 < duration < math.inf:
            raise ValueError(f"durations must be positive and finite, got {duration!r}")
        self._stats.setdefault((key, arch), _Stats()).add(duration)
        if self.ewma_alpha is not None:
            prev = self._ewma.get((key, arch))
            self._ewma[(key, arch)] = (
                duration if prev is None
                else (1 - self.ewma_alpha) * prev + self.ewma_alpha * duration
            )

    def estimate(self, key: ModelKey, arch: str) -> Optional[float]:
        if self.ewma_alpha is not None and (key, arch) in self._ewma:
            return self._ewma[(key, arch)]
        stats = self._stats.get((key, arch))
        return stats.mean if stats else None

    def entries(self):
        return self._stats.items()

    def clear(self) -> None:
        self._stats.clear()
        self._ewma.clear()

    def drop_arch(self, arch: str) -> None:
        for k in [k for k in self._stats if k[1] == arch]:
            del self._stats[k]
            self._ewma.pop(k, None)


class OraclePerfModelSet:
    """History + regression fallback + default, cached per (key, arch)."""

    def __init__(self, ewma_alpha: Optional[float] = None,
                 default_estimate_s: float = 1e-3) -> None:
        self.history = OracleHistoryModel(ewma_alpha)
        self.default_estimate_s = default_estimate_s
        self._regression: Optional[RegressionModel] = None
        self._cache: dict[tuple[ModelKey, str], float] = {}
        self.n_cache_hits = 0
        self.n_cache_misses = 0

    def record(self, op, arch: str, duration: float) -> None:
        key = model_key(op)
        self.history.record(key, arch, duration)
        self._cache.pop((key, arch), None)

    def estimate(self, op, arch: str) -> float:
        key = model_key(op)
        if (key, arch) in self._cache:
            self.n_cache_hits += 1
            return self._cache[(key, arch)]
        self.n_cache_misses += 1
        est = self.history.estimate(key, arch)
        if est is None and self._regression is not None:
            est = self._regression.estimate(key, arch)
        if est is None:
            est = self.default_estimate_s
        self._cache[(key, arch)] = est
        return est

    def enable_regression(self) -> None:
        self._regression = RegressionModel(self.history)
        self._regression.refit()
        self._cache.clear()

    def clear(self) -> None:
        self.history.clear()
        self._regression = None
        self._cache.clear()

    def invalidate_arch(self, arch: str) -> None:
        self.history.drop_arch(arch)
        if self._regression is not None:
            self._regression.refit()
        for k in [k for k in self._cache if k[1] == arch]:
            del self._cache[k]
