"""The benchmark's four workloads.

Each workload has a parent side, which turns the workload seed into a list
of *units* and checks and summarises what the units returned, and a child
side, which runs one unit in a fresh interpreter: set-up (imports and
fixtures, timed as ``setup_s``) and then the timed body.  A fresh
interpreter per unit keeps cold runs cold: module memos such as
``platforms._BEST_CAP_MEMO`` and ``catalog._GPU_CACHE`` start empty in
every unit.  The parent never imports ``repro``; the child imports it
lazily inside ``setup``, so the import counts as set-up.

Why these four (see NOTES.md for the layer map):

- ``potrf-paper``: one paper-scale DAG, so the per-task layers do all the
  work;
- ``reproduce-small``: hundreds of short runs, so run construction, the
  analytic sweep and cache writes weigh more; its warm replay reads the
  cache alone;
- ``advisor-mixed``: the HTTP service, coalescer and cache reads on the
  warm path, plus simulation and cache writes on cold queries;
- ``govern-faulted``: the only workload with the governor, fault
  injection and streamed telemetry attached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import shutil
import statistics
import threading
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FIG3 = ROOT / "tests" / "data" / "golden_fig3_small_rows.json"


def digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")
    ).hexdigest()


def nearest_rank(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * len(ordered)) - 1))
    return ordered[rank]


class Workload:
    name = ""
    #: Fewest units an end-to-end run makes, whatever ``--seconds`` says.
    min_units = 1
    #: Wrapped names a traced run of this workload must see called.
    expect: tuple[str, ...] = ()

    # Parent side ------------------------------------------------------
    def units(self, seed: int, seconds: float) -> list[dict]:
        """The seeded unit list; end-to-end runs cycle through it."""
        raise NotImplementedError

    def trace_units(self, seed: int, seconds: float) -> list[dict]:
        """The fixed reference set a traced run executes."""
        raise NotImplementedError

    def summarize(self, outs: list[dict]) -> tuple[dict, list[str]]:
        """Workload figures for the report, plus failed cross-unit checks."""
        return {}, []

    def same_result(self, a, b) -> bool:
        """Whether two runs of one unit agree (traced against untraced)."""
        return a == b

    # Child side -------------------------------------------------------
    def setup(self, unit: dict, workdir: Path):
        raise NotImplementedError

    def body(self, fixture, unit: dict, clock) -> dict:
        """Run the timed body; return ``walls``, ``result`` and checks.

        ``walls`` are at the nominal machine speed (``clock.nominal``),
        ``raw_walls`` the same intervals on the wall clock.
        """
        raise NotImplementedError


# ---------------------------------------------------------------- potrf


class PotrfPaper(Workload):
    name = "potrf-paper"
    platform = "32-AMD-4-A100"
    configs = ("HHHH", "HHBB", "BBBB")
    n_tasks = 37_820
    # Each config must run twice so repeats can be compared.
    min_units = len(configs) + 1
    expect = (
        "sim.run", "runtime.run", "runtime.calibrate", "sched.push_ready",
        "sched.pop", "sched.task_finished", "data.acquire", "data.release",
        "data.prefetch", "data.transfer_estimates", "perfmodel.record",
        "perfmodel.estimate", "hw.begin_kernel", "hw.end_kernel",
        "hw.set_power_limit", "hw.build_platform", "linalg.potrf_graph",
        "linalg.assign_priorities",
    )

    def units(self, seed, seconds):
        rng = random.Random(seed)
        order = rng.sample(self.configs, len(self.configs))
        run_seed = rng.randrange(1_000_000)
        return [{"config": c, "seed": run_seed} for c in order]

    def trace_units(self, seed, seconds):
        return self.units(seed, seconds)

    def setup(self, unit, workdir):
        from repro.core.capconfig import CapConfig
        from repro.core.tradeoff import run_operation
        from repro.experiments.platforms import cap_states, operation_spec

        spec = operation_spec(self.platform, "potrf", "double", "paper")
        states = cap_states(self.platform, "potrf", "double", "paper")
        graph = spec.build_graph()
        if len(graph.tasks) != self.n_tasks:
            raise AssertionError(
                f"paper-scale POTRF has {len(graph.tasks)} tasks, "
                f"expected {self.n_tasks}"
            )
        return run_operation, spec, states, CapConfig(unit["config"])

    def body(self, fixture, unit, clock):
        run_operation, spec, states, config = fixture
        t0 = time.perf_counter()
        metrics = run_operation(self.platform, spec, config, states,
                                scheduler="dmdas", seed=unit["seed"])
        t1 = time.perf_counter()
        return {"walls": [clock.nominal(t0, t1)], "raw_walls": [t1 - t0],
                "result": dataclasses.asdict(metrics)}

    def summarize(self, outs):
        failures = []
        by_config: dict[str, dict] = {}
        for out in outs:
            key = out["unit"]["config"]
            first = by_config.setdefault(key, out["result"])
            if out["result"] != first:
                failures.append(f"{key}: ConfigMetrics differ across repeats")
        per_config = {
            c: statistics.median(o["walls"][0] for o in outs
                                 if o["unit"]["config"] == c)
            for c in by_config
        }
        figures = {f"config_{c}_s": (v, "s") for c, v in per_config.items()}
        return figures, failures


# ------------------------------------------------------------ reproduce


EXPERIMENT_NAMES = ("fig1", "table1", "table2", "fig3", "fig4", "fig5",
                    "fig6", "fig7")


class ReproduceSmall(Workload):
    name = "reproduce-small"
    # Two cold repeats, so their work counts can be compared.
    min_units = 2
    warm_replays = 10
    expect = (
        "sim.run", "runtime.run", "sched.push_ready", "data.acquire",
        "perfmodel.record", "hw.build_platform", "linalg.potrf_graph",
        "linalg.gemm_graph", "sweep.analytic",
        "cache.key", "cache.load_many", "cache.save", "cache.read_many",
        "cache.write", "experiments.starmap",
    ) + tuple(f"experiments.{n}" for n in EXPERIMENT_NAMES)

    def units(self, seed, seconds):
        # The seed orders the drivers, which moves the cost of shared cache
        # entries between them; the rows and the totals do not change, so
        # the golden fig3 rows hold on every seed.
        order = random.Random(seed).sample(EXPERIMENT_NAMES,
                                           len(EXPERIMENT_NAMES))
        return [{"order": order, "warm_replays": self.warm_replays}]

    def trace_units(self, seed, seconds):
        return [dict(self.units(seed, seconds)[0], warm_replays=1)]

    def setup(self, unit, workdir):
        from repro.cache import ExperimentCache
        from repro.experiments import EXPERIMENTS

        if set(EXPERIMENTS) != set(unit["order"]):
            raise AssertionError(
                f"EXPERIMENTS is {sorted(EXPERIMENTS)}, "
                f"the benchmark knows {sorted(unit['order'])}"
            )
        cache_dir = workdir / "cache"
        cache_dir.mkdir()
        # Every driver defaults to jobs=1: in-process, no pool.
        drivers = [(name, EXPERIMENTS[name]) for name in unit["order"]]
        return cache_dir, ExperimentCache(cache_dir), drivers

    @staticmethod
    def _pass(drivers, cache, clock) -> tuple[dict, dict]:
        rows, walls = {}, {}
        for name, driver in drivers:
            t0 = time.perf_counter()
            res = driver(scale="small", cache=cache)
            walls[name] = clock.nominal(t0, time.perf_counter())
            rows[name] = json.loads(json.dumps(
                {"headers": list(res.headers), "rows": [list(r) for r in res.rows]}
            ))
        return rows, walls

    def body(self, fixture, unit, clock):
        from repro.cache import ExperimentCache

        cache_dir, cache, drivers = fixture
        t0 = time.perf_counter()
        rows, driver_s = self._pass(drivers, cache, clock)
        t1 = time.perf_counter()
        failures = []
        warm_walls = []
        for _ in range(unit["warm_replays"]):
            warm = ExperimentCache(cache_dir, fingerprint=cache.fingerprint)
            t2 = time.perf_counter()
            warm_rows, _ = self._pass(drivers, warm, clock)
            warm_walls.append(clock.nominal(t2, time.perf_counter()))
            if warm_rows != rows:
                failures.append("warm rows differ from cold rows")
            if warm.misses:
                failures.append(f"warm replay missed the cache {warm.misses} times")
        if rows["fig3"] != json.loads(GOLDEN_FIG3.read_text()):
            failures.append("fig3 rows differ from the golden rows")
        return {
            "walls": [clock.nominal(t0, t1)],
            "raw_walls": [t1 - t0],
            "result": digest(rows),
            "failures": failures,
            "attempted": 1 + len(warm_walls),
            "cache_misses": cache.misses,
            "warm_walls": warm_walls,
            "driver_s": driver_s,
        }

    def summarize(self, outs):
        failures = []
        for key in ("events", "cache_misses", "result"):
            if len({json.dumps(o[key]) for o in outs}) > 1:
                failures.append(f"cold repeats differ in {key}")
        warm = [w for o in outs for w in o["warm_walls"]]
        figures = {"cold_wall_s": (statistics.median(o["walls"][0] for o in outs), "s"),
                   "cache_misses": (outs[0]["cache_misses"], "count"),
                   "sim_events": (outs[0]["events"], "count")}
        if warm:
            figures["warm_replay_s"] = (statistics.median(warm), "s")
            figures["warm_replay_samples"] = (len(warm), "count")
        for name in EXPERIMENT_NAMES:
            figures[f"{name}_cold_s"] = (
                statistics.median(o["driver_s"][name] for o in outs), "s")
        return figures, failures


# -------------------------------------------------------------- advisor


class AdvisorMixed(Workload):
    name = "advisor-mixed"
    sessions = 3
    min_units = sessions
    warm_per_block = 40
    cold_per_block = 4
    blocks_per_session = 60
    #: Cold queries come from cheap, similar-cost tiny-scale instances so a
    #: block's wall does not depend on which ones the seed drew.
    menu = (
        ("24-Intel-2-V100", "gemm", "double"),
        ("24-Intel-2-V100", "gemm", "single"),
        ("24-Intel-2-V100", "potrf", "double"),
        ("64-AMD-2-A100", "gemm", "double"),
        ("64-AMD-2-A100", "gemm", "single"),
        ("64-AMD-2-A100", "potrf", "double"),
    )
    warm_pool_size = 12
    expect = (
        "http.read_request", "http.render_response", "coalesce.lease",
        "advisor.evaluate", "advisor.probe", "advisor.compute",
        "cache.key", "cache.load", "cache.load_many", "cache.read",
        "cache.read_many", "cache.write", "runtime.run", "sim.run",
        "sched.push_ready", "experiments.starmap",
    )

    def _session(self, rng: random.Random, index: int, seconds: float) -> dict:
        def query(req_seed: int) -> dict:
            platform, op, precision = rng.choice(self.menu)
            return {"platform": platform, "op": op, "precision": precision,
                    "scale": "tiny", "seed": req_seed}

        seeds = rng.sample(range(1, 1_000_000_000), 1 + self.warm_pool_size
                           + self.blocks_per_session * (2 * self.cold_per_block + 1))
        pool = [query(s) for s in seeds[:self.warm_pool_size]]
        fresh = iter(seeds[self.warm_pool_size:])
        blocks = []
        for _ in range(self.blocks_per_session):
            per_client = []
            for _client in range(2):
                items = [["warm", rng.randrange(len(pool))]
                         for _ in range(self.warm_per_block)]
                items += [["cold", query(next(fresh))]
                          for _ in range(self.cold_per_block)]
                rng.shuffle(items)
                per_client.append(items)
            blocks.append({"clients": per_client, "joint": query(next(fresh))})
        return {"session": index, "seconds": seconds, "warm_pool": pool,
                "blocks": blocks}

    def units(self, seed, seconds):
        rng = random.Random(seed)
        return [self._session(rng, i, seconds / self.sessions)
                for i in range(self.sessions)]

    def trace_units(self, seed, seconds):
        # One session as long as a whole end-to-end run, so it gathers
        # enough samples for the same percentiles.
        return [self._session(random.Random(seed), 0, seconds)]

    def same_result(self, a, b):
        # Sessions end on a deadline, so a traced session answers fewer
        # queries; the answers both sessions gave must agree.
        common = set(a) & set(b)
        return bool(common) and all(a[k] == b[k] for k in common)

    def setup(self, unit, workdir):
        import asyncio

        from repro.service.client import AdvisorClient, advice_bytes, wait_ready
        from repro.service.server import AdvisorServer

        # One shard: cold computations on two shard threads at once share
        # the process-global NVML facade (``repro.nvml.api._node``) and give
        # nondeterministic advice, which the byte-identity checks would
        # (rightly) fail.
        width = max(1, min(2, os.cpu_count() or 1))
        server = AdvisorServer(cache_dir=str(workdir / "cache"), port=0,
                               shards=1, jobs=1, probe_threads=width)
        started = threading.Event()

        def serve():
            # The server's pool threads start from this one and inherit
            # the mask.
            speed.mask_probes()
            asyncio.run(server.run(install_signals=False,
                                   ready=lambda s: started.set()))

        thread = threading.Thread(target=serve, name="advisor-loop")
        thread.start()
        try:
            if not started.wait(60) or not wait_ready("127.0.0.1", server.port,
                                                      timeout_s=60):
                raise RuntimeError("advisor server never became ready")
            pool_bytes = []
            with AdvisorClient("127.0.0.1", server.port, timeout_s=120) as client:
                for q in unit["warm_pool"]:
                    response = client.advise(q)
                    if response.status != 200:
                        raise RuntimeError(f"prefill failed: {response.status}")
                    pool_bytes.append(advice_bytes(response))
        except BaseException:
            server.stop_threadsafe()
            thread.join(60)
            raise
        return server, thread, pool_bytes

    def body(self, fixture, unit, clock):
        from repro.service.client import AdvisorClient, advice_bytes

        server, thread, pool_bytes = fixture
        pool = unit["warm_pool"]
        samples = {"warm": [], "cold": []}
        cold_bytes: dict[str, list] = {}
        failures: list[str] = []
        counts = {"attempted": 0, "coalesced": 0}
        lock = threading.Lock()
        marks: list[float] = []  # block boundaries
        state = {"stop": False, "deadline": 0.0}

        def block_end():
            now = time.perf_counter()
            marks.append(now)
            state["stop"] = now >= state["deadline"]

        sync = threading.Barrier(2, timeout=120)
        end = threading.Barrier(2, action=block_end, timeout=120)

        def ask(client, query, expect_bytes=None):
            t0 = time.perf_counter()
            response = client.advise(query)
            ms = (time.perf_counter() - t0) * 1000.0
            with lock:
                counts["attempted"] += 1
                if response.status != 200:
                    failures.append(f"status {response.status}")
                    return
                served = response.doc["served"]
                if served["cache_hit"]:
                    samples["warm"].append(ms)
                else:
                    samples["cold"].append(ms)
                    counts["coalesced"] += served["coalesced"]
                body = advice_bytes(response)
                if expect_bytes is None:
                    cold_bytes.setdefault(json.dumps(query, sort_keys=True),
                                          []).append(body)
                elif body != expect_bytes:
                    failures.append("warm advice differs from its cold bytes")

        def client_loop(cid):
            speed.mask_probes()
            try:
                with AdvisorClient("127.0.0.1", server.port, timeout_s=120) as client:
                    for block in unit["blocks"]:
                        for kind, arg in block["clients"][cid]:
                            if kind == "warm":
                                ask(client, pool[arg], pool_bytes[arg])
                            else:
                                ask(client, arg)
                        sync.wait()  # the joint query leaves both clients at once
                        ask(client, block["joint"])
                        end.wait()
                        if state["stop"]:
                            return
            except threading.BrokenBarrierError:
                with lock:
                    failures.append(f"client {cid}: barrier broken")
            except Exception as exc:  # a client error fails the run, not the process
                with lock:
                    failures.append(f"client {cid}: {exc!r}")
                sync.abort()
                end.abort()

        try:
            t0 = time.perf_counter()
            marks.append(t0)
            state["deadline"] = t0 + unit["seconds"]
            clients = [threading.Thread(target=client_loop, args=(cid,))
                       for cid in range(2)]
            for c in clients:
                c.start()
            for c in clients:
                c.join()
            t1 = time.perf_counter()
            # Outside the timed body: every cold answer must replay warm,
            # byte for byte, and both joint answers must agree.
            with AdvisorClient("127.0.0.1", server.port, timeout_s=120) as client:
                for key, bodies in cold_bytes.items():
                    if len(set(bodies)) != 1:
                        failures.append("joint answers differ")
                    response = client.advise(json.loads(key))
                    if (response.status != 200
                            or not response.doc["served"]["cache_hit"]
                            or advice_bytes(response) != bodies[0]):
                        failures.append("cold advice does not replay warm")
        finally:
            server.stop_threadsafe()
            thread.join(60)
        if thread.is_alive():
            failures.append("advisor server did not stop")
        blocks = list(zip(marks, marks[1:]))
        return {
            "walls": [clock.nominal(a, b) for a, b in blocks],
            "raw_walls": [b - a for a, b in blocks],
            "body_s": t1 - t0,
            "nominal_s": clock.nominal(t0, t1),
            "result": {k: hashlib.sha256(v[0]).hexdigest()
                       for k, v in cold_bytes.items()},
            "failures": failures,
            "attempted": counts["attempted"],
            "samples": samples,
            "coalesced": counts["coalesced"],
        }

    def summarize(self, outs):
        warm = [s for o in outs for s in o["samples"]["warm"]]
        cold = [s for o in outs for s in o["samples"]["cold"]]
        failures = []
        # A percentile is reported only with >= 10 samples beyond it.
        figures = {"advise_warm_samples": (len(warm), "count"),
                   "advise_cold_samples": (len(cold), "count")}
        for kind, data, qs in (("warm", warm, (50, 99)), ("cold", cold, (50, 90))):
            for q in qs:
                if len(data) * (100 - q) / 100 >= 10:
                    figures[f"advise_{kind}_p{q}_ms"] = (nearest_rank(data, q), "ms")
        body = sum(o["body_s"] for o in outs)
        figures["advise_qps"] = (sum(o["attempted"] for o in outs) / body, "1/s")
        figures["coalesced"] = (sum(o["coalesced"] for o in outs), "count")
        if not figures["coalesced"][0]:
            failures.append("no joint query coalesced")
        return figures, failures


# --------------------------------------------------------------- govern


class GovernFaulted(Workload):
    name = "govern-faulted"
    presets = ("kill-throttle", "hang")
    # The unit list has two entries; the third unit repeats the first, so
    # every run checks byte-identical govern.json.
    min_units = 3
    expect = (
        "govern.run", "govern.tick", "govern.sense", "faults.fire",
        "recovery.hooks", "nvml.set_verified", "nvml.apply_caps",
        "runtime.resubmit", "obs.publish", "obs.writer", "obs.export",
        "obs.subscribers", "obs.metrics", "obs.tracer", "obs.sampler",
        "planner.best_ladder", "runtime.run", "sim.run",
    )

    def units(self, seed, seconds):
        rng = random.Random(seed)
        seeds = rng.sample(range(1, 100_000), len(self.presets))
        return [{"preset": p, "seed": s} for p, s in zip(self.presets, seeds)]

    def trace_units(self, seed, seconds):
        return self.units(seed, seconds)

    def setup(self, unit, workdir):
        from repro.faults.plan import preset_plan
        from repro.govern import run_govern

        plan = preset_plan(unit["preset"], seed=unit["seed"])
        return run_govern, plan, workdir / "govern"

    def body(self, fixture, unit, clock):
        run_govern, plan, outdir = fixture
        t0 = time.perf_counter()
        gov = run_govern("24-Intel-2-V100", "gemm", "double", plan,
                         mix="shift", outdir=str(outdir), seed=unit["seed"],
                         scale="small", stream=True)
        t1 = time.perf_counter()
        summary = (outdir / "govern.json").read_bytes()
        written = sum(p.stat().st_size for p in outdir.iterdir())
        shutil.rmtree(outdir)
        return {
            "walls": [clock.nominal(t0, t1)],
            "raw_walls": [t1 - t0],
            "result": hashlib.sha256(summary).hexdigest(),
            "failures": [] if gov.passed else [f"audit failed: {unit}"],
            "bytes_written": written,
        }

    def summarize(self, outs):
        failures = []
        seen: dict[str, str] = {}
        for o in outs:
            key = json.dumps(o["unit"], sort_keys=True)
            if seen.setdefault(key, o["result"]) != o["result"]:
                failures.append(f"govern.json differs for {key}")
        figures = {"bytes_written": (
            statistics.median(o["bytes_written"] for o in outs), "bytes")}
        return figures, failures


WORKLOADS = {w.name: w for w in (PotrfPaper(), ReproduceSmall(),
                                 AdvisorMixed(), GovernFaulted())}
