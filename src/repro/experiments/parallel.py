"""Process-pool execution of independent experiment runs.

Every experiment in this repo is a list of *independent* simulations: each
``run_operation`` call builds its own :class:`~repro.sim.Simulator`, its own
platform and its own seeded RNG pool, and shares no mutable state with any
other call.  That makes them embarrassingly parallel — and, crucially,
*bit-identical* under parallel execution: the result of a run depends only
on its arguments, never on which process executed it or in which order.

:func:`parallel_starmap` is the one primitive everything uses, and the one
place a run is memoised: with a cache it keys every call, resolves the keys
in one batched lookup, computes only the misses and writes them through.
It preserves input order, runs the misses in a plain serial loop for
``jobs <= 1`` (or when fewer than two remain), and otherwise submits each
with ``chunksize=1`` so long-tailed runs balance across workers.

This module deliberately imports nothing from :mod:`repro` so that core
modules can import it lazily without creating an import cycle
(``core -> experiments.parallel`` would otherwise drag in
``experiments.__init__`` and every figure driver, which import ``core``).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Optional, Sequence


def default_jobs() -> int:
    """Worker count used for ``jobs=None``: one per available core."""
    return max(1, os.cpu_count() or 1)


def _invoke(payload: tuple) -> Any:
    """Pool-side trampoline: unpack ``(fn, args)`` and apply.

    Module-level so it pickles by reference; ``fn`` itself must therefore be
    a module-level callable too (all experiment entry points are).  A
    3-tuple ``(fn, args, ctx)`` carries a propagated trace context: the call
    runs under a fresh child tracer whose spans ship back for re-parenting
    (see :func:`repro.obs.spans.run_in_child`).
    """
    if len(payload) == 3:
        fn, args, ctx = payload
        from repro.obs import spans as _spans

        return _spans.run_in_child(fn, args, ctx)
    fn, args = payload
    return fn(*args)


def _tracing() -> Any:
    """The :mod:`repro.obs.spans` module iff a tracer is active, else None.

    Looked up through ``sys.modules`` so this module keeps its no-repro-
    imports guarantee: tracing can only be active if something else already
    imported the spans module.
    """
    spans = sys.modules.get("repro.obs.spans")
    if spans is not None and spans.ACTIVE is not None:
        return spans
    return None


def _collect(spans: Any, value: Any) -> Any:
    """Coordinator-side unwrap: adopt child spans, return the real result."""
    if isinstance(value, spans.ChildSpans):
        spans.ACTIVE.adopt(value.spans)
        return value.result
    return value


def parallel_starmap(
    fn: Callable[..., Any],
    argtuples: Iterable[Sequence],
    jobs: Optional[int] = 1,
    cache: Optional[Any] = None,
) -> list[Any]:
    """``[fn(*args) for args in argtuples]``, memoised and optionally across
    processes.

    This is the one lookup-compute-store loop of the repository.  With a
    ``cache`` (duck-typed so this module stays import-free: an
    :class:`repro.cache.ExperimentCache` or a subclass) every call is keyed
    and all keys are resolved **in this process** in one ``load_many``
    pass; a call whose key is ``None`` is uncacheable and simply runs.
    Without a cache no call has a key.  Only the misses are computed: a
    keyed miss runs through ``cache.compute_and_store``, so the executing
    process writes it through (atomically, concurrent writers are safe)
    and a warm sweep never pays pool start-up.

    Misses run in-process when ``jobs <= 1`` (the default) or when fewer
    than two remain, and otherwise over a process pool (``jobs=None``: one
    worker per core) with ``chunksize=1`` so long-tailed runs balance.  The
    returned list is in input order, and because each call is a pure
    function of its arguments the result is bit-identical whichever way
    it ran.

    ``fn`` and every argument must be picklable (module-level function,
    plain data arguments).  Exceptions raised by a call propagate to the
    caller, as in the serial loop.
    """
    calls = [tuple(args) for args in argtuples]
    keys = ([cache.key_for(fn, args) for args in calls] if cache is not None
            else [None] * len(calls))
    wanted = [key for key in keys if key is not None]
    loaded = cache.load_many(wanted) if wanted else {}
    results: list[Any] = [None] * len(calls)
    pending: list[tuple[int, Callable[..., Any], tuple]] = []
    for i, (key, args) in enumerate(zip(keys, calls)):
        if key is None:
            pending.append((i, fn, args))
            continue
        hit, value = loaded[key]
        if hit:
            results[i] = value
        else:
            pending.append((i, cache.compute_and_store, (key, fn, args)))
    n_jobs = min(default_jobs() if jobs is None else int(jobs), len(pending))
    if n_jobs <= 1:
        for i, f, args in pending:
            results[i] = f(*args)
        return results
    spans = _tracing()
    ctx = (spans.ACTIVE.context(),) if spans is not None else ()
    payloads = [(f, args) + ctx for _, f, args in pending]
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        for (i, _, _), value in zip(pending, pool.map(_invoke, payloads, chunksize=1)):
            results[i] = _collect(spans, value) if spans is not None else value
    return results
