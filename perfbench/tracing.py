"""In-memory span tracer for the benchmark's traced runs.

The tracer measures each layer of the simulator from the outside: it
replaces public functions and methods of the ``repro`` package with timing
wrappers, so no ``src/`` code changes.  Wrappers are installed in a fresh
interpreter *before* any runtime, platform or server object is built,
because hot loops bind methods when objects are constructed (the
telemetry bus, for example, binds ``on_intervals`` at ``subscribe``).

Every wrapped call updates per-thread aggregates ``[calls, total_ns,
self_ns]``; self time is the call's duration minus the part covered by
nested wrapped calls, computed with a per-thread stack.  Coarse calls
(one per run, graph, plan, query ...) are also kept as spans ``(id,
parent, name, start_ns, end_ns, thread)`` and written out when the run
ends.  Per-task calls are aggregated only: keeping one span per scheduler
decision would hold millions of tuples in memory.

Coroutines (``http.read_request``) are timed but not put on the stack:
their duration includes waiting for the peer's bytes, and other requests
run on the same thread while they wait.  They add no self time to any
layer.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable, Optional

_now = time.perf_counter_ns

#: Layer of each wrapped name, by prefix (longest prefix wins).  The layer
#: names are the ``repro`` packages the wrapped functions live in.
LAYER_PREFIXES = {
    "sim.": "sim",
    "runtime.": "runtime",
    "sched.": "runtime.schedulers",
    "data.": "runtime.data",
    "perfmodel.": "runtime.perfmodel",
    "hw.": "hardware",
    "linalg.": "linalg",
    "planner.": "core.planner",
    "sweep.": "core.planner",
    "cache.": "cache",
    "experiments.": "experiments",
    "http.": "service",
    "coalesce.": "service",
    "advisor.": "service",
    "govern.": "govern",
    "faults.": "faults",
    "nvml.": "faults",
    "recovery.": "faults",
    "obs.": "obs",
}

LAYERS = tuple(dict.fromkeys(LAYER_PREFIXES.values()))


def layer_of(name: str) -> str:
    best = ""
    for prefix in LAYER_PREFIXES:
        if name.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return LAYER_PREFIXES[best]


# ------------------------------------------------------------- counters
#
# ``count(counters, result, exc)`` hooks turn a call's result into exact
# work counts, measured where the work happens.


def _count_run(c, result, exc):
    if result is not None:
        c["runtime.tasks"] += result.n_tasks
        c["sched.placement_evals"] += result.n_placement_evals


def _count_graph(c, result, exc):
    if result is not None:
        c["linalg.tasks_built"] += len(result[0].tasks)


def _count_plan(c, result, exc):
    if result is not None:
        c["planner.configs"] += result.report.n_configs
        c["planner.simulated"] += result.report.n_simulated


def _count_points(c, result, exc):
    if result is not None:
        c["sweep.points"] += len(result)


def _count_sweep_many(c, result, exc):
    if result is not None:
        c["sweep.points"] += sum(len(points) for points in result)


def _count_load(c, result, exc):
    # ProbeCache.load raises ColdMiss instead of returning a miss.
    if exc is not None or not result[0]:
        c["cache.misses"] += 1
    else:
        c["cache.hits"] += 1


def _count_load_many(c, result, exc):
    if exc is not None:
        c["cache.misses"] += 1
        return
    hits = sum(1 for hit, _ in result.values() if hit)
    c["cache.hits"] += hits
    c["cache.misses"] += len(result) - hits


def _count_lease(c, result, exc):
    if result is not None and not result[1]:
        c["coalesce.joined"] += 1


def _count_verified_set(c, result, exc):
    if result is not None:
        c["nvml.retries"] += result[1] - 1


def _count_govern(c, result, exc):
    if result is not None:
        c["govern.moves"] += len(result.summary["budget_moves"])


#: ``(target, name, keep_spans, count)``.  A target is
#: ``module:function``, ``module:Class.method`` or ``module:Class+.method``
#: (the method on the class and on every subclass that defines it).
TARGETS = (
    ("repro.sim.engine:Simulator.run", "sim.run", True, None),
    ("repro.runtime.engine:RuntimeSystem.run", "runtime.run", True, _count_run),
    ("repro.runtime.engine:RuntimeSystem.calibrate", "runtime.calibrate", True, None),
    # The runtime's event handlers: wrapping them keeps the engine's self
    # time down to the engine itself.
    ("repro.runtime.engine:RuntimeSystem._try_start", "runtime.try_start", False, None),
    ("repro.runtime.engine:RuntimeSystem._start_exec", "runtime.start_exec", False, None),
    ("repro.runtime.engine:RuntimeSystem._finish", "runtime.finish", False, None),
    ("repro.runtime.engine:RuntimeSystem.resubmit", "runtime.resubmit", False, None),
    ("repro.runtime.schedulers.base:Scheduler+.push_ready", "sched.push_ready", False, None),
    ("repro.runtime.schedulers.base:Scheduler+.pop", "sched.pop", False, None),
    ("repro.runtime.schedulers.base:Scheduler+.task_started", "sched.task_started", False, None),
    ("repro.runtime.schedulers.base:Scheduler+.task_finished", "sched.task_finished", False, None),
    ("repro.runtime.schedulers.base:Scheduler+.peek_many", "sched.peek_many", False, None),
    ("repro.runtime.data:DataManager.acquire", "data.acquire", False, None),
    ("repro.runtime.data:DataManager.release", "data.release", False, None),
    ("repro.runtime.data:DataManager.prefetch", "data.prefetch", False, None),
    ("repro.runtime.data:DataManager.transfer_estimates", "data.transfer_estimates", False, None),
    ("repro.runtime.data:DataManager.transfer_estimate", "data.transfer_estimate", False, None),
    ("repro.runtime.perfmodel:PerfModelSet.record", "perfmodel.record", False, None),
    ("repro.runtime.perfmodel:PerfModelSet.estimate", "perfmodel.estimate", False, None),
    ("repro.hardware.gpu:GPUDevice.begin_kernel", "hw.begin_kernel", False, None),
    ("repro.hardware.gpu:GPUDevice.end_kernel", "hw.end_kernel", False, None),
    ("repro.hardware.gpu:GPUDevice.set_power_limit", "hw.set_power_limit", False, None),
    ("repro.hardware.cpu:CPUPackage.begin_core", "hw.begin_core", False, None),
    ("repro.hardware.cpu:CPUPackage.end_core", "hw.end_core", False, None),
    ("repro.hardware.catalog:build_platform", "hw.build_platform", True, None),
    ("repro.linalg.potrf:potrf_graph", "linalg.potrf_graph", True, _count_graph),
    ("repro.linalg.gemm:gemm_graph", "linalg.gemm_graph", True, _count_graph),
    ("repro.linalg.priorities:assign_priorities", "linalg.assign_priorities", True, None),
    ("repro.core.planner:plan_configs", "planner.plan_configs", True, _count_plan),
    ("repro.core.planner:best_ladder_under_budget", "planner.best_ladder", True, None),
    ("repro.core.planner:analytic_sweep_points", "sweep.analytic", True, _count_points),
    ("repro.core.sweep:sweep_gemm", "sweep.sweep_gemm", True, _count_points),
    ("repro.core.sweep:simulated_sweep_gemm", "sweep.simulated", True, _count_points),
    ("repro.core.sweep:sweep_many", "sweep.sweep_many", True, _count_sweep_many),
    ("repro.cache.experiment:ExperimentCache.key_for", "cache.key", False, None),
    ("repro.cache.experiment:ExperimentCache.key_for_call", "cache.key", False, None),
    ("repro.cache.experiment:ExperimentCache+.load", "cache.load", False, _count_load),
    ("repro.cache.experiment:ExperimentCache+.load_many", "cache.load_many", False,
     _count_load_many),
    ("repro.cache.experiment:ExperimentCache+.save", "cache.save", False, None),
    ("repro.cache.store:CacheStore.read", "cache.read", False, None),
    ("repro.cache.store:CacheStore.read_many", "cache.read_many", False, None),
    ("repro.cache.store:CacheStore.write", "cache.write", False, None),
    ("repro.experiments.parallel:parallel_starmap", "experiments.starmap", True, None),
    ("repro.service.http:read_request", "http.read_request", False, None),
    ("repro.service.http:render_response", "http.render_response", False, None),
    ("repro.service.coalesce:Coalescer.lease", "coalesce.lease", False, _count_lease),
    ("repro.service.advisor:evaluate", "advisor.evaluate", True, None),
    ("repro.service.advisor:probe_advice", "advisor.probe", True, None),
    ("repro.service.advisor:compute_advice", "advisor.compute", True, None),
    ("repro.govern.run:run_govern", "govern.run", True, _count_govern),
    ("repro.govern.controller:PowerBudgetGovernor.on_tick", "govern.tick", False, None),
    ("repro.govern.controller:PowerBudgetGovernor.__call__", "govern.sense", False, None),
    ("repro.govern.controller:PowerBudgetGovernor.on_intervals", "govern.sense", False, None),
    ("repro.faults.injector:FaultInjector._fire", "faults.fire", False, None),
    ("repro.faults.recovery:RecoveryManager.on_task_staging", "recovery.hooks", False, None),
    ("repro.faults.recovery:RecoveryManager.on_task_running", "recovery.hooks", False, None),
    ("repro.faults.recovery:RecoveryManager.on_task_finished", "recovery.hooks", False, None),
    ("repro.faults.nvml_guard:apply_caps_verified", "nvml.apply_caps", False, None),
    ("repro.faults.nvml_guard:set_power_limit_verified", "nvml.set_verified", False,
     _count_verified_set),
    ("repro.obs.stream:TelemetryBus.publish", "obs.publish", False, None),
    ("repro.obs.stream:TelemetryBus.publish_interval", "obs.publish", False, None),
    ("repro.obs.stream:StreamWriter.__call__", "obs.writer", False, None),
    ("repro.obs.stream:StreamWriter.on_intervals", "obs.writer", False, None),
    ("repro.obs.stream:StreamWriter.flush", "obs.writer", False, None),
    ("repro.obs.stream:StreamWriter.close", "obs.writer", False, None),
    ("repro.obs.stream:OnlineAggregator.__call__", "obs.subscribers", False, None),
    ("repro.obs.stream:OnlineAggregator.on_intervals", "obs.subscribers", False, None),
    ("repro.obs.stream:Watchdogs.__call__", "obs.subscribers", False, None),
    ("repro.obs.stream:Watchdogs.on_intervals", "obs.subscribers", False, None),
    ("repro.obs.exporters:write_events_jsonl", "obs.export", True, None),
    ("repro.obs.exporters:write_enriched_chrome_trace", "obs.export", True, None),
    ("repro.obs.decisions:DecisionLog.write_jsonl", "obs.export", True, None),
    ("repro.obs.decisions:DecisionLog.append", "obs.decisions", False, None),
    ("repro.obs.metrics:MetricsRegistry.counter", "obs.metrics", False, None),
    ("repro.obs.metrics:MetricsRegistry.histogram", "obs.metrics", False, None),
    ("repro.obs.metrics:MetricsRegistry.gauge", "obs.metrics", False, None),
    ("repro.sim.tracing:Tracer.interval", "obs.tracer", False, None),
    ("repro.tools.powertrace:PowerSampler._tick", "obs.sampler", False, None),
)

#: Modules imported before patching, so every ``from x import f`` binding
#: of a wrapped function already exists and can be rebound.
PRELOAD = (
    "repro.experiments",
    "repro.core.tradeoff",
    "repro.core.planner",
    "repro.service.server",
    "repro.service.client",
    "repro.govern",
    "repro.govern.run",
    "repro.obs.capture",
    # Every scheduler policy, so each subclass gets wrapped.
    "repro.runtime.schedulers",
)


class _ThreadState:
    __slots__ = ("tid", "stack", "agg", "counters", "spans")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: list = []
        self.agg: dict[str, list[int]] = {}
        self.counters: dict[str, float] = collections.defaultdict(int)
        self.spans: list[tuple] = []


class Tracer:
    """Per-thread stacks and aggregates; merged when the run ends."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        #: Wrapped name -> number of functions wrapped under it.
        self.wrapped: dict[str, int] = {}
        self._async: set[str] = set()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # ------------------------------------------------------------ wrappers

    def wrap(self, fn: Callable, name: str, keep: bool = False,
             count: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``fn`` recorded under ``name``."""
        self.wrapped[name] = self.wrapped.get(name, 0) + 1
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, name)
        state_of = self._state
        ids = self._ids

        def close(state, frame, t0, result, exc):
            t1 = _now()
            dt = t1 - t0
            stack = state.stack
            stack.pop()
            if stack:
                stack[-1][1] += dt
            agg = state.agg.get(name)
            if agg is None:
                agg = state.agg[name] = [0, 0, 0]
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - frame[1]
            if keep:
                parent = 0
                for outer in reversed(stack):
                    if outer[2]:
                        parent = outer[2]
                        break
                state.spans.append((frame[2], parent, name, t0, t1, state.tid))
            if count is not None:
                count(state.counters, result, exc)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if stack and stack[-1][0] == name:
                # An override calling ``super()``: one logical call.
                return fn(*args, **kwargs)
            frame = [name, 0, next(ids) if keep else 0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(state, frame, t0, None, exc)
                raise
            close(state, frame, t0, result, None)
            return result

        return wrapper

    def _wrap_async(self, fn: Callable, name: str) -> Callable:
        self._async.add(name)
        state_of = self._state

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            t0 = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                state = state_of()
                agg = state.agg.get(name)
                if agg is None:
                    agg = state.agg[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += _now() - t0

        return wrapper

    # -------------------------------------------------------------- results

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up's calls)."""
        with self._lock:
            for state in self._states:
                state.agg.clear()
                state.counters.clear()
                state.spans.clear()

    def export(self, spans_path: Optional[str] = None) -> dict:
        """Merged aggregates and counters; spans go to ``spans_path``."""
        agg: dict[str, list[int]] = {name: [0, 0, 0] for name in self.wrapped}
        counters: dict[str, float] = {}
        spans: list[tuple] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_ns) in state.agg.items():
                slot = agg[name]
                slot[0] += calls
                slot[1] += total
                slot[2] += self_ns
            for key, value in state.counters.items():
                counters[key] = counters.get(key, 0) + value
            spans.extend(state.spans)
        if spans_path is not None:
            spans.sort(key=lambda s: s[3])
            with open(spans_path, "w") as fh:
                for sid, parent, name, t0, t1, tid in spans:
                    fh.write(json.dumps({
                        "id": sid, "parent": parent, "name": name,
                        "start_ns": t0, "end_ns": t1, "thread": tid,
                    }) + "\n")
        return {
            "agg": agg,
            "counters": counters,
            "async": sorted(self._async),
            "n_spans": len(spans),
        }


def merge(traces: list[dict]) -> dict:
    """Sum :meth:`Tracer.export` outputs of several units."""
    merged = {"agg": {}, "counters": {}, "async": set(), "n_spans": 0}
    for trace in traces:
        for name, slot in trace["agg"].items():
            acc = merged["agg"].setdefault(name, [0, 0, 0])
            for k in range(3):
                acc[k] += slot[k]
        for key, value in trace["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        merged["async"].update(trace["async"])
        merged["n_spans"] += trace["n_spans"]
    return merged


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in attr:
        return module, None, attr
    cls_name, _, meth = attr.partition(".")
    return module, cls_name, meth


def _subclasses(cls) -> list:
    out, todo = {}, [cls]
    while todo:
        c = todo.pop()
        out[c] = None
        todo.extend(c.__subclasses__())
    return list(out)


def _rebind_everywhere(orig: Callable, wrapper: Callable) -> None:
    """Point every ``repro`` module global bound to ``orig`` at ``wrapper``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def install() -> Tracer:
    """Wrap every target; call before building any ``repro`` object."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    tracer = Tracer()
    for target, name, keep, count in TARGETS:
        module, cls_name, attr = _resolve(target)
        if cls_name is None:
            orig = getattr(module, attr)
            _rebind_everywhere(orig, tracer.wrap(orig, name, keep, count))
            continue
        base_name = cls_name.rstrip("+")
        base = getattr(module, base_name)
        classes = _subclasses(base) if cls_name.endswith("+") else [base]
        patched = 0
        for cls in classes:
            orig = cls.__dict__.get(attr)
            if orig is None:
                continue
            setattr(cls, attr, tracer.wrap(orig, name, keep, count))
            patched += 1
        if patched == 0:
            raise RuntimeError(f"{target}: no class defines {attr}")
    # The experiment registry holds the drivers by value.
    from repro.experiments import EXPERIMENTS

    for key, fn in list(EXPERIMENTS.items()):
        EXPERIMENTS[key] = tracer.wrap(fn, f"experiments.{key}", keep=True)
    return tracer


def count_tasks() -> Callable[[], int]:
    """The untraced runs' only hook: simulated tasks, one update per run.

    Returns a reader for the running total.  Runs happen on advisor shard
    threads too, hence the lock.
    """
    from repro.runtime.engine import RuntimeSystem

    lock = threading.Lock()
    total = [0]
    orig = RuntimeSystem.run

    @functools.wraps(orig)
    def run(self, graph, *args, **kwargs):
        result = orig(self, graph, *args, **kwargs)
        with lock:
            total[0] += result.n_tasks
        return result

    RuntimeSystem.run = run
    return lambda: total[0]


# ---------------------------------------------------------- layer metrics

#: The per-layer metrics, in report order: ``(name, unit, better)``.
#: ``BENCHMARK.json`` lists the same names.
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("runtime.tasks", "count", "higher"),
    ("runtime.self_s", "s", "lower"),
    ("sched.decisions", "count", "lower"),
    ("sched.push_ready_us", "us", "lower"),
    ("sched.pop_us", "us", "lower"),
    ("sched.task_finished_us", "us", "lower"),
    ("sched.placement_evals_per_task", "ratio", "lower"),
    ("data.acquire_us", "us", "lower"),
    ("data.release_us", "us", "lower"),
    ("data.prefetch_us", "us", "lower"),
    ("data.transfer_estimates_us", "us", "lower"),
    ("data.acquire_calls", "count", "lower"),
    ("data.release_calls", "count", "lower"),
    ("data.prefetch_calls", "count", "lower"),
    ("data.transfer_estimates_calls", "count", "lower"),
    ("perfmodel.record_us", "us", "lower"),
    ("perfmodel.estimate_us", "us", "lower"),
    ("perfmodel.record_calls", "count", "lower"),
    ("perfmodel.estimate_calls", "count", "lower"),
    ("hw.kernel_us", "us", "lower"),
    ("hw.kernel_calls", "count", "lower"),
    ("hw.set_power_limit_calls", "count", "lower"),
    ("hw.build_platform_ms", "ms", "lower"),
    ("hw.build_platform_calls", "count", "lower"),
    ("linalg.build_graph_s", "s", "lower"),
    ("linalg.tasks_built", "count", "lower"),
    ("planner.plan_ms", "ms", "lower"),
    ("planner.plans", "count", "lower"),
    ("planner.configs", "count", "higher"),
    ("planner.simulated", "count", "lower"),
    ("planner.simulated_ratio", "ratio", "lower"),
    ("sweep.points", "count", "lower"),
    ("sweep.analytic_ms", "ms", "lower"),
    ("cache.key_us", "us", "lower"),
    ("cache.read_us", "us", "lower"),
    ("cache.read_many_us", "us", "lower"),
    ("cache.write_us", "us", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
) + tuple(
    (f"experiments.{n}_s", "s", "lower")
    for n in ("fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "table1", "table2")
) + (
    ("experiments.starmap_calls", "count", "lower"),
    ("http.read_request_us", "us", "lower"),
    ("http.render_response_us", "us", "lower"),
    ("coalesce.leases", "count", "higher"),
    ("coalesce.joined_ratio", "ratio", "higher"),
    ("advisor.evaluate_ms", "ms", "lower"),
    ("advisor.probe_ms", "ms", "lower"),
    ("advisor.compute_ms", "ms", "lower"),
    ("govern.ticks", "count", "lower"),
    ("govern.tick_us", "us", "lower"),
    ("govern.moves", "count", "lower"),
    ("faults.injected", "count", "higher"),
    ("nvml.apply_calls", "count", "lower"),
    ("nvml.retries", "count", "lower"),
    ("recovery.resubmits", "count", "lower"),
    ("obs.events_published", "count", "lower"),
    ("obs.publish_us", "us", "lower"),
    ("obs.writer_s", "s", "lower"),
    ("obs.bytes_written", "bytes", "lower"),
    ("obs.export_s", "s", "lower"),
) + tuple(
    (f"layer.{layer}.{kind}", unit, "lower")
    for layer in LAYERS for kind, unit in (("self_s", "s"), ("share", "ratio"))
) + (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.calls", "count", "lower"),
    ("trace.spans", "count", "lower"),
)


def layer_metrics(trace: dict, wall_s: float, extra: dict) -> dict:
    """Per-layer metrics from merged trace aggregates.

    ``trace`` is :meth:`Tracer.export` output summed over a run's traced
    units, ``wall_s`` their summed timed wall, and ``extra`` the counts the
    units measured themselves (``sim.events``, ``obs.bytes_written``,
    ``trace.overhead_ratio``).
    """
    agg, counters = trace["agg"], trace["counters"]
    asynchronous = set(trace["async"])

    def calls(*names):
        return sum(agg.get(n, (0, 0, 0))[0] for n in names)

    def total_s(*names):
        return sum(agg.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def per_call(name, scale):
        n = calls(name)
        return total_s(name) * scale / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_ns) in agg.items():
        if name not in asynchronous:
            layer_self[layer_of(name)] += self_ns / 1e9
    tasks = counters.get("runtime.tasks", 0)
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    leases = calls("coalesce.lease")
    configs = counters.get("planner.configs", 0)
    values = {
        "sim.events": extra["sim.events"],
        "sim.self_s": layer_self["sim"],
        "runtime.tasks": tasks,
        "runtime.self_s": layer_self["runtime"],
        "sched.decisions": calls("sched.push_ready"),
        "sched.push_ready_us": per_call("sched.push_ready", 1e6),
        "sched.pop_us": per_call("sched.pop", 1e6),
        "sched.task_finished_us": per_call("sched.task_finished", 1e6),
        "sched.placement_evals_per_task": ratio(
            counters.get("sched.placement_evals", 0), tasks),
        "hw.kernel_us": ratio(total_s("hw.begin_kernel", "hw.end_kernel") * 1e6,
                              calls("hw.begin_kernel")),
        "hw.kernel_calls": calls("hw.begin_kernel"),
        "hw.set_power_limit_calls": calls("hw.set_power_limit"),
        "hw.build_platform_ms": per_call("hw.build_platform", 1e3),
        "hw.build_platform_calls": calls("hw.build_platform"),
        "linalg.build_graph_s": total_s("linalg.potrf_graph", "linalg.gemm_graph",
                                        "linalg.assign_priorities"),
        "linalg.tasks_built": counters.get("linalg.tasks_built", 0),
        "planner.plan_ms": per_call("planner.plan_configs", 1e3),
        "planner.plans": calls("planner.plan_configs"),
        "planner.configs": configs,
        "planner.simulated": counters.get("planner.simulated", 0),
        "planner.simulated_ratio": ratio(counters.get("planner.simulated", 0),
                                         configs),
        "sweep.points": counters.get("sweep.points", 0),
        "sweep.analytic_ms": per_call("sweep.analytic", 1e3),
        "cache.key_us": per_call("cache.key", 1e6),
        "cache.read_us": per_call("cache.read", 1e6),
        "cache.read_many_us": per_call("cache.read_many", 1e6),
        "cache.write_us": per_call("cache.write", 1e6),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": ratio(hits, hits + misses),
        "experiments.starmap_calls": calls("experiments.starmap"),
        "http.read_request_us": per_call("http.read_request", 1e6),
        "http.render_response_us": per_call("http.render_response", 1e6),
        "coalesce.leases": leases,
        "coalesce.joined_ratio": ratio(counters.get("coalesce.joined", 0), leases),
        "advisor.evaluate_ms": per_call("advisor.evaluate", 1e3),
        "advisor.probe_ms": per_call("advisor.probe", 1e3),
        "advisor.compute_ms": per_call("advisor.compute", 1e3),
        "govern.ticks": calls("govern.tick"),
        "govern.tick_us": per_call("govern.tick", 1e6),
        "govern.moves": counters.get("govern.moves", 0),
        "faults.injected": calls("faults.fire"),
        "nvml.apply_calls": calls("nvml.set_verified"),
        "nvml.retries": counters.get("nvml.retries", 0),
        "recovery.resubmits": calls("runtime.resubmit"),
        "obs.events_published": calls("obs.publish"),
        "obs.publish_us": per_call("obs.publish", 1e6),
        "obs.writer_s": total_s("obs.writer"),
        "obs.bytes_written": extra["obs.bytes_written"],
        "obs.export_s": total_s("obs.export"),
        "trace.overhead_ratio": extra["trace.overhead_ratio"],
        "trace.calls": sum(slot[0] for slot in agg.values()),
        "trace.spans": trace["n_spans"],
    }
    for op in ("acquire", "release", "prefetch", "transfer_estimates"):
        values[f"data.{op}_us"] = per_call(f"data.{op}", 1e6)
        values[f"data.{op}_calls"] = calls(f"data.{op}")
    for op in ("record", "estimate"):
        values[f"perfmodel.{op}_us"] = per_call(f"perfmodel.{op}", 1e6)
        values[f"perfmodel.{op}_calls"] = calls(f"perfmodel.{op}")
    for name, unit, _ in PER_LAYER:
        if name.startswith("experiments.") and name.endswith("_s"):
            values[name] = total_s(name[:-2])
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = layer_self[layer]
        values[f"layer.{layer}.share"] = ratio(layer_self[layer], wall_s)
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
