"""Command-line driver.

Three families of commands::

    repro <experiment> [--scale ...]     # regenerate a paper artefact
    repro all | list                     # everything / enumerate
    repro sweep --model ... --n ...      # ad-hoc kernel cap sweep (Sec. II)
    repro tradeoff --platform ... --config HHBB ...   # ad-hoc app run (Sec. V)
    repro run --config HL --outdir runs/hl            # instrumented run + artefacts
    repro run --config HL --outdir runs/hl --stream   # ... with live events.jsonl
    repro report runs/hl                              # audit a traced run
    repro watch runs/hl --follow                      # live dashboard over a stream
    repro run --op potrf --preset kill-throttle       # fault-injected run + audit
    repro run --allocator efficiency --mix shift      # governed vs static-best
    repro serve --cache-dir .repro-cache              # cap-advisor HTTP service

``repro run`` builds one :class:`~repro.core.runs.RunSpec` from its flags;
``trace``, ``chaos`` and ``govern`` are ``repro run`` with other defaults.
Any run-producing command accepts ``--spans FILE`` to record a span trace
of where its wall time went (see :mod:`repro.obs.spans`).
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Optional, Sequence

from repro.core.runs import POWER_PERIOD_S, RunSpecError
from repro.experiments import EXPERIMENTS
from repro.experiments.runner import SCALES

#: Environment fallback for --cache-dir (and the `repro cache` default).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def _parse_size(text: str) -> int:
    """``500M`` / ``2G`` / ``1048576`` -> bytes (for ``cache gc --max-size``)."""
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    t = text.strip().upper().removesuffix("B")
    mult = units.get(t[-1:] or "", 1)
    num = t[:-1] if mult != 1 else t
    try:
        size = float(num) * mult
    except ValueError:
        size = math.nan
    if not 0.0 <= size < math.inf:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (use e.g. 500M, 2G, 1048576; "
            "finite and >= 0)"
        )
    return int(size)


def _parse_age(text: str) -> float:
    """``90s`` / ``30m`` / ``12h`` / ``7d`` -> seconds (for ``--max-age``)."""
    units = {"S": 1.0, "M": 60.0, "H": 3600.0, "D": 86400.0}
    t = text.strip().upper()
    mult = units.get(t[-1:] or "", 1.0)
    num = t[:-1] if t[-1:] in units else t
    try:
        age = float(num) * mult
    except ValueError:
        age = math.nan
    if not 0.0 <= age < math.inf:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r} (use e.g. 90s, 30m, 12h, 7d; "
            "finite and >= 0)"
        )
    return age


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache; repeated runs with unchanged "
        f"code become disk reads (default: ${CACHE_DIR_ENV} if set)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help=f"run uncached even when ${CACHE_DIR_ENV} is set",
    )


def _add_spans_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--spans", default=None, metavar="FILE",
        help="record a span trace of the command (phases, cache lookups, "
        "pool-worker calls) to FILE as JSONL",
    )


@contextmanager
def _span_tracing(args):
    """Activate a span tracer for the command when ``--spans`` was given.

    The whole command runs inside one ``cli`` root span; on exit the merged
    trace (including any adopted pool-worker spans) is written out.
    """
    spans_path = getattr(args, "spans", None)
    if not spans_path:
        yield
        return
    from repro.obs import spans as spans_mod

    tracer = spans_mod.SpanTracer()
    spans_mod.activate(tracer)
    try:
        with tracer.span("cli", command=args.command):
            yield
    finally:
        spans_mod.deactivate()
        n = tracer.write_jsonl(spans_path)
        sys.stdout.write(f"  (wrote {n} spans to {spans_path})\n")


def _open_cache(args):
    """The ExperimentCache the flags ask for, or ``None`` for uncached."""
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None) or os.environ.get(CACHE_DIR_ENV)
    if not cache_dir:
        return None
    from repro.cache import ExperimentCache

    return ExperimentCache(cache_dir)


def _run_flags(one_run: bool = True) -> argparse.ArgumentParser:
    """The run flags with their one set of defaults: RunSpec's fields, then
    (``one_run``) what ``repro run`` does with its run.

    A fresh parent per subparser, so an alias's ``set_defaults`` changes
    only its own copies of the flags.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--platform", default="24-Intel-2-V100")
    p.add_argument("--op", choices=["gemm", "potrf"], default="gemm")
    p.add_argument("--precision", choices=["single", "double"], default="double")
    p.add_argument("--scale", choices=SCALES, default="small")
    p.add_argument("--config", default=None, metavar="LETTERS",
                   help="cap config letters, e.g. HL (default: all-H; "
                   "tradeoff: the full ladder)")
    p.add_argument("--scheduler", default="dmdas")
    p.add_argument("--seed", type=int, default=0)
    _add_cache_args(p)
    _add_spans_arg(p)
    if not one_run:
        return p
    p.add_argument("--power-period", type=float, default=POWER_PERIOD_S,
                   metavar="S", help="power sampling period in simulated seconds")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--plan", default=None, metavar="FILE",
                       help="JSON fault plan (see docs/resilience.md)")
    group.add_argument("--preset", default=None,
                       help="named fault plan (--preset help lists them)")
    p.add_argument("--allocator", default=None,
                   help="govern the run under a watt budget with this split "
                   "policy (--allocator help lists them)")
    p.add_argument("--budget", type=float, default=None, metavar="W",
                   help="global watt budget of a governed run (default: 80%% "
                   "of the platform's cap-max sum; alone it implies "
                   "--allocator efficiency)")
    p.add_argument("--mix", choices=["steady", "shift"], default="steady",
                   help="governed runs: 'shift' appends a second workload "
                   "phase the static config was not derived for")
    p.add_argument("--outdir", default=None, metavar="DIR",
                   help="write the run's artefacts (required without a plan "
                   "or budget)")
    p.add_argument("--stream", action="store_true",
                   help="write events.jsonl live through the telemetry bus "
                   "(watchable mid-run with `repro watch`; crash-tolerant; "
                   "requires --outdir)")
    p.add_argument("--report", action="store_true",
                   help="print the run report after the run")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the unbalanced-GPU-power-capping paper's "
        "tables and figures on the simulated platforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in sorted(EXPERIMENTS) + ["all"]:
        p = sub.add_parser(name, help=f"regenerate {name}" if name != "all" else "run every experiment")
        p.add_argument("--scale", choices=SCALES, default="small")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for independent runs (0 = one per core); "
            "results are bit-identical to --jobs 1",
        )
        p.add_argument("--csv", action="store_true")
        p.add_argument(
            "--outdir", default=None, metavar="DIR",
            help="also write result.txt/result.csv/manifest.json under DIR/<name>",
        )
        _add_cache_args(p)
        _add_spans_arg(p)

    sub.add_parser("list", help="list available experiments")

    p = sub.add_parser("sweep", help="cap sweep of a GEMM on one GPU model")
    p.add_argument("--model", default="A100-SXM4-40GB")
    p.add_argument("--n", type=int, default=5120)
    p.add_argument("--precision", choices=["single", "double"], default="double")
    p.add_argument("--step-pct", type=float, default=2.0)
    p.add_argument("--csv", action="store_true")
    _add_cache_args(p)

    sub.add_parser(
        "run", parents=[_run_flags()],
        help="one run from RunSpec flags: traced; under a fault plan with "
        "--plan/--preset; governed vs static-best with --allocator/--budget",
    )
    # Aliases of `repro run` with other defaults, kept for one release.
    sub.add_parser("trace", parents=[_run_flags()], help="alias of repro run")
    sub.add_parser("chaos", parents=[_run_flags()], help="alias of repro run "
                   "--op potrf --scale tiny --preset kill-throttle"
                   ).set_defaults(op="potrf", scale="tiny", preset="kill-throttle")
    sub.add_parser("govern", parents=[_run_flags()], help="alias of repro run "
                   "--scale tiny --allocator efficiency"
                   ).set_defaults(scale="tiny", allocator="efficiency")
    p = sub.add_parser("tradeoff", parents=[_run_flags(one_run=False)],
                       help="run one operation under the cap config ladder")
    p.set_defaults(platform="32-AMD-4-A100")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the config ladder (0 = one per core)")
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("report", help="summarize a traced run directory")
    p.add_argument("rundir", help="directory written by `repro run`")
    p.add_argument("--max-gaps", type=int, default=8,
                   help="idle gaps to list (longest first)")
    p.add_argument("--follow", action="store_true",
                   help="wait for a live run to finish, then report it")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="give up following after S seconds and report "
                   "whatever the stream holds")

    p = sub.add_parser(
        "watch",
        help="tail a streamed run directory as a refreshing text dashboard "
        "(works on live, completed and killed runs)",
    )
    p.add_argument("rundir", help="directory written with --stream")
    p.add_argument("--follow", action="store_true",
                   help="keep refreshing until the run ends (default: render "
                   "the current state once)")
    p.add_argument("--interval", type=float, default=0.5, metavar="S",
                   help="poll interval while following")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="stop following after S seconds")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of clearing the screen")

    p = sub.add_parser(
        "serve",
        help="run the cap-advisor service: POST /v1/advise answers "
        "cap-planning queries from the shared cache (warm) or a coalesced "
        "worker pool (cold)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750,
                   help="listen port (0 = pick an ephemeral port)")
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared experiment cache the service answers from "
        f"(default: ${CACHE_DIR_ENV} or .repro-cache)",
    )
    p.add_argument("--shards", type=int, default=2, metavar="N",
                   help="worker shards for cold computations")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parallel_starmap processes per shard "
                   "(0 = one per core)")
    p.add_argument("--max-queue", type=int, default=16, metavar="N",
                   help="max distinct cold computations in flight before "
                   "429 backpressure")
    p.add_argument("--request-timeout", type=float, default=120.0,
                   metavar="S", help="per-request timeout (504 past it; the "
                   "computation still finishes and is cached)")
    p.add_argument("--drain-timeout", type=float, default=10.0, metavar="S",
                   help="seconds to let in-flight requests finish on "
                   "SIGTERM/SIGINT")

    p = sub.add_parser("cache", help="inspect and maintain the experiment cache")
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=f"cache root (default: ${CACHE_DIR_ENV} or .repro-cache)",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("stats", help="entry counts, bytes, kinds")
    cache_sub.add_parser(
        "verify", help="check every entry's checksum; exit 1 if any is corrupt"
    )
    g = cache_sub.add_parser("gc", help="evict entries by age and/or total size")
    g.add_argument("--max-size", type=_parse_size, default=None, metavar="SIZE",
                   help="evict oldest entries until the store fits (e.g. 500M)")
    g.add_argument("--max-age", type=_parse_age, default=None, metavar="AGE",
                   help="drop entries older than this (e.g. 7d, 12h)")
    cache_sub.add_parser("clear", help="remove every entry")
    return parser


def _emit(result, as_csv: bool) -> None:
    sys.stdout.write(result.csv() if as_csv else result.table())


def _emit_cache_line(cache) -> None:
    """One provenance line after a cached command (separate from the table,
    so warm and cold tables stay byte-identical)."""
    if cache is not None:
        sys.stdout.write(
            f"  (cache: {cache.hits} hits, {cache.misses} misses, "
            f"dir {cache.store.root})\n"
        )


def _cmd_sweep(args) -> int:
    from repro.core.sweep import best_point, check_step_pct, sweep_gemm
    from repro.experiments.runner import ExperimentResult
    from repro.hardware.catalog import gpu_spec

    if args.n <= 0:
        raise _UsageError(f"--n must be positive, got {args.n}")
    try:
        check_step_pct(gpu_spec(args.model), args.step_pct, "--step-pct")
    except (KeyError, ValueError) as exc:
        raise _UsageError(exc.args[0]) from None
    cache = _open_cache(args)
    points = sweep_gemm(
        args.model, args.n, args.precision, step_pct=args.step_pct, cache=cache
    )
    result = ExperimentResult(
        name="sweep",
        title=f"GEMM N={args.n} {args.precision} cap sweep on {args.model}",
        headers=["cap_W", "cap_pct_tdp", "gflops", "power_W", "eff_gflops_per_W"],
        rows=[
            (round(p.cap_w, 0), round(p.cap_pct_tdp, 1), round(p.gflops, 1),
             round(p.power_w, 1), round(p.efficiency, 2))
            for p in points
        ],
    )
    best = best_point(points)
    result.notes = [
        f"best: {best.cap_w:.0f} W ({best.cap_pct_tdp:.0f} % TDP), "
        f"{best.efficiency:.2f} Gflop/s/W"
    ]
    _emit(result, args.csv)
    _emit_cache_line(cache)
    return 0


def _run_spec(args, **fields):
    """The validated :class:`~repro.core.runs.RunSpec` of the run flags,
    its operation and cap states not yet resolved."""
    from repro.core.runs import RunSpec

    return RunSpec(
        args.platform, None, args.config, None, scheduler=args.scheduler,
        seed=args.seed, scale=args.scale, **fields,
    ).validate()


def _cmd_tradeoff(args) -> int:
    from repro.core.capconfig import CapConfig
    from repro.core.tradeoff import run_config_set
    from repro.experiments.platforms import cap_states, config_list, operation_spec
    from repro.experiments.runner import ExperimentResult

    wanted = _run_spec(args).config
    cache = _open_cache(args)
    spec = operation_spec(args.platform, args.op, args.precision, args.scale)
    states = cap_states(args.platform, args.op, args.precision, args.scale, cache=cache)
    configs = config_list(args.platform)
    if args.config is not None:
        default = CapConfig("H" * wanted.n_gpus)
        configs = [default] + ([wanted] if wanted.letters != default.letters else [])
    metrics = run_config_set(
        args.platform, spec, configs, states,
        scheduler=args.scheduler, seed=args.seed,
        jobs=(None if args.jobs == 0 else args.jobs),
        cache=cache,
    )
    base = metrics["H" * configs[0].n_gpus]
    result = ExperimentResult(
        name="tradeoff",
        title=f"{spec} on {args.platform} ({args.scheduler})",
        headers=["config", "gflops", "perf_delta_pct", "energy_J",
                 "energy_saving_pct", "eff_gflops_per_W"],
        rows=[
            (
                c.letters,
                round(metrics[c.letters].gflops, 1),
                round(metrics[c.letters].perf_delta_pct(base), 2),
                round(metrics[c.letters].energy_j, 1),
                round(metrics[c.letters].energy_saving_pct(base), 2),
                round(metrics[c.letters].efficiency, 2),
            )
            for c in configs
        ],
    )
    _emit(result, args.csv)
    _emit_cache_line(cache)
    return 0


def _cmd_run(args) -> int:
    """One RunSpec from the run flags, sent down one path: a governed
    comparison with ``--allocator`` or ``--budget``, a chaos comparison
    with a fault plan, otherwise one traced run."""
    from repro.cluster.budget import ALLOCATORS
    from repro.experiments.platforms import cap_states, operation_spec
    from repro.faults.plan import PRESET_NAMES, FaultPlan

    if args.plan is None and args.preset == "help":
        print("\n".join(PRESET_NAMES))
        return 0
    if args.allocator == "help":
        print("\n".join(sorted(ALLOCATORS)))
        return 0
    governed = args.allocator is not None or args.budget is not None
    faulted = args.plan is not None or args.preset is not None
    if args.mix != "steady" and not governed:
        raise _UsageError(f"--mix {args.mix} needs --allocator or --budget")
    if governed and args.config is not None:
        raise _UsageError("--config: a governed run's caps follow --budget")
    if args.stream and args.outdir is None:
        raise _UsageError("--stream requires --outdir")
    if args.outdir is None and not (governed or faulted):
        raise _UsageError("a run without a plan or budget needs --outdir")
    if governed and args.plan is None and args.preset in (None, "none"):
        plan = FaultPlan(name="none")
    else:
        plan = _fault_plan(args) if faulted else None
    spec = _run_spec(
        args, plan=plan, power_period_s=args.power_period,
        governor=(args.allocator or "efficiency") if governed else None,
        budget_w=args.budget,
    )
    cache = _open_cache(args)
    if not governed:
        spec = replace(
            spec,
            operation=operation_spec(spec.platform, args.op, args.precision, spec.scale),
            states=cap_states(spec.platform, args.op, args.precision, spec.scale,
                              cache=cache),
        )
    if governed or faulted:
        if governed:
            from repro.govern import render_govern_summary as render
            from repro.govern import run_govern

            outcome = run_govern(
                spec.platform, args.op, args.precision, spec.plan,
                budget_w=spec.budget_w, mix=args.mix, outdir=args.outdir,
                scheduler=spec.scheduler, seed=spec.seed, scale=spec.scale,
                allocator=spec.governor, power_period_s=spec.power_period_s,
                cache=cache, stream=args.stream,
            )
        else:
            from repro.faults.chaos import render_chaos_summary as render
            from repro.faults.chaos import run_chaos

            outcome = run_chaos(spec, args.outdir, cache, args.stream)
        sys.stdout.write(render(outcome.summary))
        _emit_cache_line(cache)
        if outcome.outdir is not None:
            summary_file = "govern.json" if governed else "chaos.json"
            sys.stdout.write(
                f"wrote {outcome.outdir}: {summary_file} faults.jsonl manifest.json "
                f"result.json decisions.jsonl events.jsonl trace.json metrics.prom\n"
            )
        outdir, code = outcome.outdir, 0 if outcome.passed else 1
    else:
        from repro.obs.capture import run_traced

        run = run_traced(spec, args.outdir, args.stream)
        result = run.results[0]
        events_note = "events.jsonl(streamed)" if args.stream else "events.jsonl"
        sys.stdout.write(
            f"wrote {run.outdir}: manifest.json result.json decisions.jsonl "
            f"{events_note} trace.json metrics.prom\n"
            f"  {result.n_tasks} tasks, {len(run.decisions)} decisions, "
            f"{len(run.sampler.samples)} power samples, "
            f"makespan {result.makespan_s:.4f}s\n"
        )
        if run.anomalies:
            sys.stdout.write(f"  {len(run.anomalies)} watchdog anomalies (see report)\n")
        outdir, code = run.outdir, 0
    if args.report and outdir is not None:
        from repro.obs.report import render_report

        sys.stdout.write("\n" + render_report(str(outdir)))
    return code


def _cmd_report(args) -> int:
    from repro.obs.report import render_report

    if args.follow:
        from repro.obs.watch import wait_for_run_end

        if not wait_for_run_end(args.rundir, timeout_s=args.timeout):
            sys.stdout.write(
                "[stream] timeout waiting for the run to finish; "
                "reporting the partial stream\n"
            )
    try:
        report = render_report(args.rundir, max_gaps=args.max_gaps)
    except FileNotFoundError as exc:
        raise _UsageError(f"cannot read {exc.filename}: {exc.strerror}") from None
    sys.stdout.write(report)
    return 0


def _cmd_watch(args) -> int:
    from repro.obs.watch import watch_command

    try:
        watch_command(
            args.rundir,
            follow=args.follow,
            interval_s=args.interval,
            timeout_s=args.timeout,
            clear=not args.no_clear,
        )
    except FileNotFoundError as exc:
        print(f"repro watch: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import AdvisorServer, serve_url

    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or ".repro-cache"
    server = AdvisorServer(
        cache_dir=cache_dir,
        host=args.host,
        port=args.port,
        shards=args.shards,
        jobs=(os.cpu_count() or 1) if args.jobs == 0 else args.jobs,
        max_queue=args.max_queue,
        request_timeout_s=args.request_timeout,
        drain_timeout_s=args.drain_timeout,
    )

    def ready(srv: AdvisorServer) -> None:
        # One parseable line the CI jobs and the load generator wait for.
        sys.stdout.write(
            f"repro serve: listening on {serve_url(srv.host, srv.port)} "
            f"(cache {cache_dir}, {srv.shards} shards x {srv.jobs} jobs, "
            f"queue {srv.max_queue})\n"
        )
        sys.stdout.flush()

    asyncio.run(server.run(ready=ready))
    sys.stdout.write("repro serve: drained cleanly\n")
    return 0


def _cmd_cache(args) -> int:
    from repro.cache import CacheStore

    root = args.cache_dir or os.environ.get(CACHE_DIR_ENV) or ".repro-cache"
    store = CacheStore(root)
    if args.cache_command == "stats":
        stats = store.stats()
        for key in ("root", "schema", "entries", "bytes", "corrupt"):
            print(f"{key}: {stats[key]}")
        for kind, n in stats["by_kind"].items():
            print(f"kind {kind}: {n}")
        return 0
    if args.cache_command == "verify":
        ok, problems = store.verify()
        print(f"{ok} valid, {len(problems)} corrupt")
        for msg in problems:
            print(f"  {msg}")
        return 1 if problems else 0
    if args.cache_command == "gc":
        out = store.gc(max_size_bytes=args.max_size, max_age_s=args.max_age)
        print(f"removed {out['removed']} entries, freed {out['freed_bytes']} bytes")
        return 0
    print(f"removed {store.clear()} entries")  # clear
    return 0


class _UsageError(Exception):
    """A bad command-line input: one ``repro <cmd>: ...`` line, exit 2."""


def _fault_plan(args):
    """The ``--plan`` file or the named ``--preset`` plan."""
    from repro.faults.plan import FaultPlan, FaultPlanError, preset_plan

    try:
        if args.plan is not None:
            return FaultPlan.load(args.plan)
        return preset_plan(args.preset, seed=args.seed)
    except OSError as exc:
        raise _UsageError(f"cannot read --plan {args.plan}: {exc.strerror}") from None
    except FaultPlanError as exc:
        source = f"--plan {args.plan}" if args.plan is not None else "--preset"
        raise _UsageError(f"{source}: {exc}") from None


def _check_args(args) -> None:
    """Reject a count flag below its minimum, a ``--port`` outside
    0..65535, and a period or timeout that is not finite and positive (the
    run flags are checked by :meth:`~repro.core.runs.RunSpec.validate`)."""
    for attr, least in (("jobs", 0), ("shards", 1), ("max_queue", 1), ("max_gaps", 0)):
        count = getattr(args, attr, None)
        if count is not None and count < least:
            flag = "--" + attr.replace("_", "-")
            raise _UsageError(f"{flag} must be >= {least}, got {count}")
    port = getattr(args, "port", None)
    if port is not None and not 0 <= port <= 65535:
        raise _UsageError(f"--port must be in 0..65535, got {port}")
    for attr in ("request_timeout", "drain_timeout", "interval", "timeout"):
        seconds = getattr(args, attr, None)
        if seconds is not None and not 0.0 < seconds < math.inf:
            flag = "--" + attr.replace("_", "-")
            raise _UsageError(f"{flag} must be finite and > 0, got {seconds}")


#: Exit status of a tool killed by SIGPIPE (128 + 13), what ``repro``
#: returns when the reader of its stdout goes away early.
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            return _main(argv)
        finally:
            # Inside the guard, so output still buffered (argparse's
            # --help included) meets a closed pipe here, not at exit.
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro table1 | head -1``).  Point
        # stdout at devnull so the interpreter's own flush at exit stays
        # quiet too, and exit as a SIGPIPE-killed tool would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def _main(argv: Optional[Sequence[str]]) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        with _span_tracing(args):
            return _dispatch(args)
    except (_UsageError, RunSpecError) as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    command = {
        "sweep": _cmd_sweep, "tradeoff": _cmd_tradeoff, "run": _cmd_run,
        "trace": _cmd_run, "chaos": _cmd_run, "govern": _cmd_run,
        "report": _cmd_report, "watch": _cmd_watch, "serve": _cmd_serve,
        "cache": _cmd_cache,
    }.get(args.command)
    if command is not None:
        return command(args)
    cache = _open_cache(args)
    names = sorted(EXPERIMENTS) if args.command == "all" else [args.command]
    for name in names:
        t0 = time.time()
        fn = EXPERIMENTS[name]
        kwargs = {"scale": args.scale, "seed": args.seed}
        # Experiments gain --jobs/--cache support individually; pass them
        # through only where the driver accepts them so the rest keep
        # working untouched.
        params = inspect.signature(fn).parameters
        if "jobs" in params:
            kwargs["jobs"] = None if args.jobs == 0 else args.jobs
        if cache is not None and "cache" in params:
            kwargs["cache"] = cache
        hits0, misses0 = (cache.hits, cache.misses) if cache is not None else (0, 0)
        result = fn(**kwargs)
        cache_note = ""
        delta: Optional[dict] = None
        if cache is not None and "cache" in params:
            delta = {"hits": cache.hits - hits0, "misses": cache.misses - misses0}
            cache_note = f", cache {delta['hits']} hits / {delta['misses']} misses"
        _emit(result, args.csv)
        sys.stdout.write(f"  ({time.time() - t0:.1f}s wall{cache_note})\n\n")
        if args.outdir:
            provenance = {"scale": args.scale, "seed": args.seed}
            if delta is not None:
                provenance["cache"] = {**cache.counts(), **delta}
            outpath = result.write_outputs(args.outdir, provenance=provenance)
            sys.stdout.write(f"  (saved to {outpath})\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
