"""Where paper-scale POTRF spends its time, by statistical sampling.

Not a test: run it by hand from the repository root (about 15 s)::

    python tests/sample_profile.py                 # 3 configs x 3 seeds
    python tests/sample_profile.py --seeds 0 --top 40 --interval-ms 1
    python tests/sample_profile.py --memory        # the graph's memory

It runs paper-scale double POTRF on 32-AMD-4-A100 under ``dmdas`` (the
``potrf-paper`` perfbench workload's body: ``run_operation`` for HHHH, HHBB
and BBBB, once per seed) with a ``SIGPROF`` interval timer armed around
each run.  The timer counts this process's CPU time and its signal goes to
this process only.  Each sample charges the innermost ``src/repro`` frame
on the interrupted stack: time in C builtins, the standard library and
numpy counts as self time of the ``repro`` function that called it.

It prints each layer's and each function's share of the samples.  A layer
is the ``repro`` package a function lives in, split as perfbench's
``--trace 1`` splits it (``runtime.data``, ``runtime.schedulers``,
``runtime.perfmodel`` apart from the rest of ``runtime``).  Unlike
``--trace 1``, which wraps ~85 functions and so inflates the share of
small, frequent calls, a sample adds no per-call cost.  CPython runs the
handler at its next function entry or loop back-edge, so a sample taken in
straight-line code can be charged to the next function called.

``--memory`` profiles the paper-scale POTRF graph instead of its runs.  It
builds the graph once (``OperationSpec.build_graph``, as every run does)
and prints the GC-tracked objects it adds per task, the time of one full
collection over it and the process's ``ru_maxrss``; then it builds the
graph again under ``tracemalloc`` and prints the lines that allocated the
most of it.
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = str(ROOT / "src" / "repro") + os.sep

#: Modules reported as a layer of their own; every other module goes to
#: its top-level package (``repro/sim/engine.py`` -> ``sim``).
SPLIT = {
    "runtime/data.py": "runtime.data",
    "runtime/perfmodel.py": "runtime.perfmodel",
    "runtime/schedulers": "runtime.schedulers",
}

PLATFORM = "32-AMD-4-A100"
CONFIGS = ("HHHH", "HHBB", "BBBB")


def layer_of(relpath: str) -> str:
    for prefix, layer in SPLIT.items():
        if relpath.startswith(prefix):
            return layer
    head, _, tail = relpath.partition("/")
    return head if tail else head.removesuffix(".py")


class Sampler:
    """Counts SIGPROF samples by innermost ``repro`` frame."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.counts: collections.Counter = collections.Counter()
        self.outside = 0

    def _on_signal(self, signum, frame) -> None:
        while frame is not None:
            code = frame.f_code
            if code.co_filename.startswith(PKG):
                self.counts[code] += 1
                return
            frame = frame.f_back
        self.outside += 1

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def report(self, top: int) -> str:
        total = sum(self.counts.values()) + self.outside
        if not total:
            return "no samples"
        layers: collections.Counter = collections.Counter()
        funcs: collections.Counter = collections.Counter()
        for code, n in self.counts.items():
            rel = code.co_filename[len(PKG):].replace(os.sep, "/")
            layers[layer_of(rel)] += n
            funcs[(layer_of(rel), f"{rel}:{code.co_qualname}")] += n
        lines = [f"{total} samples, {self.interval_s * 1e3:g} ms apart",
                 "", "| layer | samples | self share |", "|---|---|---|"]
        for layer, n in layers.most_common():
            lines.append(f"| {layer} | {n} | {100 * n / total:.1f} % |")
        if self.outside:
            lines.append(f"| (no repro frame) | {self.outside} "
                         f"| {100 * self.outside / total:.1f} % |")
        lines += ["", "| function | layer | samples | self share |", "|---|---|---|---|"]
        for (layer, name), n in funcs.most_common(top):
            lines.append(f"| `{name}` | {layer} | {n} | {100 * n / total:.1f} % |")
        return "\n".join(lines)


def memory_report(spec, top: int) -> str:
    """Tracked objects, collection time, peak RSS and top allocating lines
    of one built ``spec`` graph."""
    import tracemalloc

    gc.collect()
    before = len(gc.get_objects())
    t0 = time.perf_counter()
    graph = spec.build_graph()
    build_s = time.perf_counter() - t0
    tracked = len(gc.get_objects()) - before
    t0 = time.perf_counter()
    gc.collect()
    collect_ms = (time.perf_counter() - t0) * 1e3
    n_tasks = len(graph)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    del graph
    gc.collect()
    tracemalloc.start()
    graph = spec.build_graph()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = snapshot.statistics("lineno")
    total = sum(s.size for s in stats)
    lines = [
        f"{n_tasks} tasks, built in {build_s:.3f} s",
        f"GC-tracked objects added: {tracked} ({tracked / n_tasks:.2f} per task)",
        f"one full collection over the graph: {collect_ms:.1f} ms",
        f"ru_maxrss after the build: {rss_mb:.1f} MB",
        "", f"tracemalloc: {total / 2**20:.1f} MB live after the build",
        "", "| line | MB | blocks |", "|---|---|---|",
    ]
    for stat in stats[:top]:
        frame = stat.traceback[0]
        name = os.path.relpath(frame.filename, ROOT)
        lines.append(f"| `{name}:{frame.lineno}` | {stat.size / 2**20:.1f} "
                     f"| {stat.count} |")
    del graph
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--interval-ms", type=float, default=2.0)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--memory", action="store_true",
                    help="profile the built graph's memory, not the runs")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.capconfig import CapConfig
    from repro.core.tradeoff import run_operation
    from repro.experiments.platforms import cap_states, operation_spec

    spec = operation_spec(PLATFORM, "potrf", "double", "paper")
    if args.memory:
        print(f"paper-scale POTRF graph, {PLATFORM}")
        print(memory_report(spec, args.top))
        return 0
    states = cap_states(PLATFORM, "potrf", "double", "paper")
    sampler = Sampler(args.interval_ms / 1e3)
    t0 = time.perf_counter()
    for seed in args.seeds:
        for config in CONFIGS:
            with sampler:
                run_operation(PLATFORM, spec, CapConfig(config), states,
                              scheduler="dmdas", seed=seed)
    runs = len(args.seeds) * len(CONFIGS)
    print(f"paper-scale POTRF, {PLATFORM}, dmdas: {runs} runs in "
          f"{time.perf_counter() - t0:.1f} s wall")
    print(sampler.report(args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
