"""The cache object the experiment layers accept as ``cache=``.

:class:`ExperimentCache` glues the key layer to the store and knows the
repo's cacheable call shapes:

- ``run_operation(platform, spec, config, states, scheduler, seed,
  cpu_caps)`` — one simulated application run, value is a
  :class:`~repro.core.efficiency.ConfigMetrics`;
- ``sweep_gemm(model, n, precision, step_pct, m, k)`` — one kernel cap
  sweep, value is a list of :class:`~repro.core.sweep.SweepPoint`;
- ``chaos_baseline`` — the fault-free instrumented baseline of ``repro
  chaos`` (a small dict of makespan/energy/gflops).

A call of any argument shape it does not recognise is **uncacheable**:
:meth:`key_for` returns ``None`` and the caller runs it normally.

Grids of runs are memoised in one place,
:func:`repro.experiments.parallel.parallel_starmap`: it keys every call with
:meth:`key_for`, resolves them in one :meth:`load_many` pass and writes the
misses through :meth:`compute_and_store`.  :meth:`load` (the single-key
lookups of ``sweep_gemm`` and the chaos/govern baselines) and
:meth:`load_many` resolve each entry through the same code: corrupt
self-heal, the hit/miss/corrupt counters and the ``cache.lookup`` span
event.

The object is picklable — counters, the store root and the precomputed
code fingerprint travel to ``parallel_starmap`` pool workers, which write
misses back to the shared store themselves (atomically, see
:mod:`repro.cache.store`).  Hit/miss counters are only meaningful in the
process that performed the lookups; the parent does all lookups, so its
counters are the run's truth.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Optional, Sequence

from repro.cache.keys import canonical_number, code_fingerprint, run_key
from repro.cache.store import CacheStore, CorruptEntry
from repro.obs import spans as _spans

#: Positional defaults of ``run_operation`` past the four required args.
_RUN_OPERATION_DEFAULTS: tuple = ("dmdas", 0, None)

#: Positional defaults of ``sweep_gemm`` past (model, n, precision).
_SWEEP_DEFAULTS: tuple = (2.0, None, None)


class ExperimentCache:
    """Content-addressed memo of whole experiment runs.

    ``fingerprint`` defaults to the installed source tree's digest; tests
    pass an explicit value to simulate code changes without editing files.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        fingerprint: Optional[str] = None,
        store: Optional[CacheStore] = None,
    ) -> None:
        self.store = store if store is not None else CacheStore(root)
        self.fingerprint = (
            code_fingerprint() if fingerprint is None else fingerprint
        )
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.write_errors = 0

    # ------------------------------------------------------------------ keys

    def key_for(self, fn: Callable | str, args: Sequence) -> Optional[str]:
        """The cache key for ``fn(*args)``, or ``None`` when uncacheable."""
        name = fn if isinstance(fn, str) else getattr(fn, "__name__", "")
        builder = {
            "run_operation": self._run_operation_call,
            "sweep_gemm": self._sweep_call,
        }.get(name)
        if builder is None:
            return None
        call = builder(tuple(args))
        return None if call is None else self.key_for_call(call)

    def key_for_call(self, call: dict) -> str:
        """Key a prebuilt call document (used by the chaos and govern baselines)."""
        return run_key(self.fingerprint, call)

    @staticmethod
    def _run_operation_call(args: tuple) -> Optional[dict]:
        if not 4 <= len(args) <= 7:
            return None
        scheduler, seed, cpu_caps = args[4:] + _RUN_OPERATION_DEFAULTS[len(args) - 4:]
        platform, spec, config, states = args[:4]
        try:
            return operation_call(
                "run_operation", platform, spec, config, states,
                scheduler, seed, cpu_caps,
            )
        except (AttributeError, TypeError, ValueError):
            return None

    @staticmethod
    def _sweep_call(args: tuple) -> Optional[dict]:
        if not 3 <= len(args) <= 6:
            return None
        model, n, precision = args[:3]
        if not isinstance(model, str):  # GPUSpec objects are uncacheable
            return None
        step_pct, m, k = args[3:] + _SWEEP_DEFAULTS[len(args) - 3:]
        try:
            return {
                "fn": "sweep_gemm",
                "model": model,
                "n": int(n),
                "precision": str(precision),
                "step_pct": canonical_number(step_pct, "step_pct"),
                "m": None if m is None else int(m),
                "k": None if k is None else int(k),
            }
        except (TypeError, ValueError):
            return None

    # ------------------------------------------------------------------- io

    def load(self, key: str) -> tuple[bool, Any]:
        """``(hit, value)``; counts the lookup and survives corrupt entries."""
        try:
            entry = self.store.read(key)
        except CorruptEntry as exc:
            entry = exc
        return self._resolve(key, entry)

    def load_many(self, keys: list[str]) -> dict[str, tuple[bool, Any]]:
        """Resolve N keys in one batched pass: ``{key: (hit, value)}``.

        One store traversal instead of N :meth:`load` calls, with per-key
        semantics identical to calling :meth:`load` on each distinct key in
        input order; ``parallel_starmap`` uses it to resolve a whole grid
        before any pool work is submitted.
        """
        entries = self.store.read_many(keys)
        out: dict[str, tuple[bool, Any]] = {}
        for key in keys:
            if key not in out:
                out[key] = self._resolve(key, entries[key])
        return out

    def _resolve(self, key: str, entry: Any) -> tuple[bool, Any]:
        """One looked-up entry (a store entry, ``None`` or a
        :class:`CorruptEntry`) -> ``(hit, value)``: counters, the
        ``cache.lookup`` span event and corrupt self-heal live here only."""
        if isinstance(entry, CorruptEntry):
            # A torn or rotted entry must never poison a run: drop it, count
            # it, recompute.  The rewrite is atomic, so this self-heals.
            self.corrupt += 1
            self.store.discard(key)
            entry = None
        if _spans.ACTIVE is not None:
            _spans.event("cache.lookup", result="miss" if entry is None else "hit",
                         key=key[:12])
        if entry is None:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, decode_value(*entry)

    def save(self, key: str, value: Any, label: str = "") -> None:
        """Persist a computed value; storage failures degrade, never crash."""
        kind, payload = encode_value(value)
        meta = {"fingerprint": self.fingerprint}
        if label:
            meta["label"] = label
        try:
            self.store.write(key, kind, payload, meta=meta)
        except OSError:
            self.write_errors += 1

    def compute_and_store(
        self, key: Optional[str], fn: Callable, args: tuple
    ) -> Any:
        """Pool-side trampoline: run the miss, write it through under
        ``key`` (an uncacheable ``None`` key just runs), return it."""
        value = fn(*args)
        if key is not None:
            self.save(key, value)
        return value

    # -------------------------------------------------------------- metrics

    def counts(self) -> dict:
        """Hit/miss provenance for manifests and CLI summaries."""
        return {
            "dir": str(self.store.root),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "fingerprint": self.fingerprint,
        }

    def publish_metrics(self, registry) -> None:
        """Raise the ``cache.*`` families in a registry to current totals."""
        for name, help_text, total in (
            ("cache.hits", "Experiment-cache hits.", self.hits),
            ("cache.misses", "Experiment-cache misses.", self.misses),
            ("cache.corrupt", "Corrupt entries dropped and recomputed.",
             self.corrupt),
        ):
            counter = registry.counter(name, help_text)
            counter.inc(max(0.0, total - counter.value))
        registry.gauge(
            "cache.bytes", "Total bytes in the on-disk store."
        ).set(self.store.size_bytes())


def operation_call(
    fn: str, platform, spec, config, states, scheduler, seed, cpu_caps
) -> dict:
    """Canonical call document for one application-run identity.

    Float fields go through :func:`~repro.cache.keys.canonical_number`, so a
    ``-0.0`` watt value keys identically to ``0.0`` and a non-finite value
    raises ``ValueError`` here (callers treat that as uncacheable or, at the
    service boundary, as a client error) instead of exploding inside the
    no-NaN JSON encoder at lookup time.
    """
    return {
        "fn": fn,
        "platform": str(platform),
        "op": str(spec.op),
        "n": int(spec.n),
        "nb": int(spec.nb),
        "precision": str(spec.precision),
        "config": str(config.letters),
        "states": [
            canonical_number(states.h_w, "states.h_w"),
            canonical_number(states.b_w, "states.b_w"),
            canonical_number(states.l_w, "states.l_w"),
        ],
        "scheduler": str(scheduler),
        "seed": int(seed),
        "cpu_caps": (
            {str(k): canonical_number(v, f"cpu_caps[{k}]") for k, v in cpu_caps.items()}
            if cpu_caps else {}
        ),
    }


# ------------------------------------------------------------------- values
#
# Codecs use lazy imports: repro.core.sweep and repro.core.tradeoff accept an
# ExperimentCache, so importing them here at module level would be a cycle.

def encode_value(value: Any) -> tuple[str, Any]:
    """``(kind, JSON-safe payload)`` for every cacheable value type."""
    from repro.core.efficiency import ConfigMetrics
    from repro.core.sweep import SweepPoint

    if isinstance(value, ConfigMetrics):
        return "ConfigMetrics", {
            "config": value.config,
            "makespan_s": value.makespan_s,
            "total_flops": value.total_flops,
            "energy_j": value.energy_j,
            "device_energy_j": dict(value.device_energy_j),
            "gpu_task_fraction": value.gpu_task_fraction,
        }
    if (
        isinstance(value, list)
        and value
        and all(isinstance(p, SweepPoint) for p in value)
    ):
        return "SweepPoints", [
            {
                "cap_w": p.cap_w,
                "cap_pct_tdp": p.cap_pct_tdp,
                "time_s": p.time_s,
                "gflops": p.gflops,
                "power_w": p.power_w,
                "energy_j": p.energy_j,
            }
            for p in value
        ]
    if isinstance(value, dict):
        return "json", value
    raise TypeError(f"uncacheable value type {type(value).__name__}")


def decode_value(kind: str, payload: Any) -> Any:
    """Inverse of :func:`encode_value`; floats round-trip exactly via JSON."""
    if kind == "ConfigMetrics":
        from repro.core.efficiency import ConfigMetrics

        return ConfigMetrics(**payload)
    if kind == "SweepPoints":
        from repro.core.sweep import SweepPoint

        return [SweepPoint(**p) for p in payload]
    if kind == "json":
        return payload
    raise CorruptEntry(f"unknown payload kind {kind!r}")
