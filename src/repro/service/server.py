"""The cap-advisor server: warm from cache, cold through a coalesced pool.

Request flow for ``POST /v1/advise``::

    parse/validate (400 on bad input)
      -> answer memo on the event loop (a repeat of a query this server
         already read back from disk -> answer now, no thread hop, no read)
      -> warm probe on the probe thread pool (all cache hits -> answer now
         and remember the advice bytes in the memo)
      -> coalesce on the canonical advise key
           join an in-flight computation        (no new work)
           or become leader:
               queue full -> 429 + Retry-After  (backpressure)
               else dispatch to a worker shard  (parallel_starmap inside)
      -> await with per-request timeout         (504; computation continues
                                                 and still fills the cache)

Graceful drain: SIGTERM (or :meth:`AdvisorServer.request_stop`) stops the
listener, lets in-flight requests finish up to ``drain_timeout_s``, closes
idle keep-alive connections, shuts the pools down and returns — the CLI
then exits 0 with no orphaned workers.

Everything observable lands in a :class:`repro.obs.metrics.MetricsRegistry`
exposed as Prometheus text at ``GET /v1/metrics``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional

from repro.cache import CacheStore, code_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.service import http
from repro.service.advisor import advise_key, compute_advice, probe_advice
from repro.service.coalesce import Coalescer
from repro.service.protocol import ValidationError, parse_advise_request

#: Latency buckets: warm answers live in the 1-50 ms decades, cold ones in
#: the 0.1-60 s decades.
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


#: Advice documents the answer memo keeps, least recently used evicted
#: first.  One entry is the canonical bytes of one advice document (~2 KB).
MEMO_ENTRIES = 1024


def _encode(doc: Any) -> bytes:
    """Deterministic JSON bytes (sorted keys, no whitespace, no NaN)."""
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _json_bytes(doc: Any) -> bytes:
    """Deterministic response encoding (sorted keys, no NaN)."""
    return _encode(doc) + b"\n"


def _advice_body(advice: bytes, served: dict) -> bytes:
    """``_json_bytes({"advice": ..., "served": served})`` for advice already
    encoded by :func:`_encode`: only the volatile ``served`` block is
    rendered per request."""
    return b'{"advice":' + advice + b',"served":' + _encode(served) + b"}\n"


class AdvisorServer:
    """Asyncio HTTP server answering cap-planning queries over a shared cache.

    ``shards`` worker threads run cold computations (each drives
    ``parallel_starmap`` with ``jobs`` processes); ``probe_threads`` answer
    warm queries from disk, and repeats of those are answered from an
    in-memory memo of their advice bytes.  ``max_queue`` bounds
    *distinct* cold computations in flight — joins of an existing
    computation are free and never rejected.
    """

    def __init__(
        self,
        cache_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        shards: int = 2,
        jobs: int = 1,
        probe_threads: int = 4,
        max_queue: int = 16,
        request_timeout_s: float = 120.0,
        drain_timeout_s: float = 10.0,
        fingerprint: Optional[str] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one worker shard")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.cache_dir = str(cache_dir)
        self.store = CacheStore(cache_dir)
        self.host = host
        self.port = port
        self.shards = shards
        self.jobs = jobs
        self.probe_threads = probe_threads
        self.max_queue = max_queue
        self.request_timeout_s = request_timeout_s
        self.drain_timeout_s = drain_timeout_s
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()

        self.registry = MetricsRegistry()
        self.coalescer = Coalescer()
        #: Advise key -> encoded advice, filled only by a successful disk
        #: probe (LRU, at most ``MEMO_ENTRIES``).  The key holds the code
        #: fingerprint, so an entry can never go stale.
        self._memo: OrderedDict[str, bytes] = OrderedDict()
        #: Cold computations dispatched and not yet finished (queue depth).
        self.pending = 0
        self.draining = False
        self.started_at = time.time()

        #: Injection points for tests (slow/failing computations without
        #: monkeypatching module globals under a running event loop).
        self._compute: Callable = compute_advice
        self._probe: Callable = probe_advice

        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._conns: dict[asyncio.Task, dict] = {}
        self._compute_pool: Optional[ThreadPoolExecutor] = None
        self._probe_pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the listener and spin up the pools (no signal handling)."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._compute_pool = ThreadPoolExecutor(
            max_workers=self.shards, thread_name_prefix="advise-shard"
        )
        self._probe_pool = ThreadPoolExecutor(
            max_workers=self.probe_threads, thread_name_prefix="advise-probe"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=http.MAX_HEADER_BYTES,
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        self.registry.gauge(
            "repro_service_up", "1 while the advisor accepts requests."
        ).set(1)

    async def run(
        self,
        install_signals: bool = True,
        ready: Optional[Callable[["AdvisorServer"], None]] = None,
    ) -> None:
        """Serve until stopped, then drain.  The CLI entry point."""
        await self.start()
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self.request_stop)
        if ready is not None:
            ready(self)
        try:
            await self._stop_event.wait()
        finally:
            if install_signals:
                for sig in (signal.SIGTERM, signal.SIGINT):
                    self._loop.remove_signal_handler(sig)
            await self.drain()

    def request_stop(self) -> None:
        """Begin a graceful shutdown (idempotent; loop-thread only)."""
        self.draining = True
        self.registry.gauge("repro_service_up").set(0)
        if self._stop_event is not None:
            self._stop_event.set()

    def stop_threadsafe(self) -> None:
        """Request a graceful shutdown from any thread (used by tests)."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.request_stop)
            except RuntimeError:
                pass  # loop already closed: the server is stopped

    async def drain(self) -> None:
        """Stop accepting, finish in-flight work, shut the pools down."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge idle keep-alive connections: closing the transport makes
        # their pending read return EOF, so their tasks exit cleanly.  Busy
        # connections finish their current response first.
        for state in self._conns.values():
            if not state["busy"]:
                state["writer"].close()
        if self._conns:
            await asyncio.wait(
                set(self._conns), timeout=self.drain_timeout_s
            )
        for task, state in list(self._conns.items()):
            state["writer"].close()
            task.cancel()
        if self._conns:
            await asyncio.gather(*self._conns, return_exceptions=True)
        self._conns.clear()
        for pool in (self._compute_pool, self._probe_pool):
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        self._compute_pool = self._probe_pool = None

    # ---------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        state = {"writer": writer, "busy": False}
        self._conns[task] = state
        try:
            await self._connection_loop(reader, writer, state)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conns.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass

    async def _connection_loop(self, reader, writer, state) -> None:
        while not self.draining:
            try:
                request = await http.read_request(reader)
            except http.BadRequest as exc:
                await self._write(
                    writer,
                    http.render_response(
                        exc.status, _json_bytes({"error": str(exc)}), close=True
                    ),
                )
                return
            if request is None:
                return
            state["busy"] = True
            try:
                status, body, extra = await self._dispatch(request)
                close = request.close or self.draining
                await self._write(
                    writer,
                    http.render_response(
                        status, body, close=close, extra_headers=extra,
                        content_type=(
                            "text/plain; version=0.0.4"
                            if request.path == "/v1/metrics" else "application/json"
                        ),
                    ),
                )
            finally:
                state["busy"] = False
            if request.close:
                return

    async def _write(self, writer: asyncio.StreamWriter, payload: bytes) -> None:
        writer.write(payload)
        await writer.drain()

    # ------------------------------------------------------------- dispatch

    async def _dispatch(self, request: http.Request):
        """Route one request; returns ``(status, body, extra_headers)``."""
        t0 = time.perf_counter()
        route, handler = self._route(request)
        try:
            status, body, extra = await handler(request)
        except Exception as exc:  # the connection must survive handler bugs
            self.registry.counter(
                "repro_service_errors_total", "Unhandled handler exceptions."
            ).inc()
            status, body, extra = 500, _json_bytes({"error": repr(exc)}), None
        self.registry.counter(
            "repro_service_requests_total", "HTTP requests served.",
            labels={"route": route, "status": str(status)},
        ).inc()
        self.registry.histogram(
            "repro_service_request_seconds", "Wall time per request.",
            labels={"route": route}, buckets=_LATENCY_BUCKETS,
        ).observe(time.perf_counter() - t0)
        return status, body, extra

    def _route(self, request: http.Request):
        path, method = request.path, request.method
        if path == "/v1/advise":
            if method != "POST":
                return "advise", self._method_not_allowed("POST")
            return "advise", self._advise
        if path == "/v1/healthz":
            if method != "GET":
                return "healthz", self._method_not_allowed("GET")
            return "healthz", self._healthz
        if path == "/v1/metrics":
            if method != "GET":
                return "metrics", self._method_not_allowed("GET")
            return "metrics", self._metrics
        if path == "/v1/cache/stats":
            if method != "GET":
                return "cache_stats", self._method_not_allowed("GET")
            return "cache_stats", self._cache_stats
        return "unknown", self._not_found

    def _method_not_allowed(self, allow: str):
        async def handler(request: http.Request):
            return 405, _json_bytes({"error": f"use {allow}"}), {"Allow": allow}
        return handler

    async def _not_found(self, request: http.Request):
        return 404, _json_bytes({
            "error": f"no route {request.path!r}",
            "routes": ["/v1/advise", "/v1/healthz", "/v1/metrics",
                       "/v1/cache/stats"],
        }), None

    # ------------------------------------------------------------ endpoints

    async def _healthz(self, request: http.Request):
        status = 503 if self.draining else 200
        return status, _json_bytes({
            "status": "draining" if self.draining else "ok",
            "pid": os.getpid(),
            "uptime_s": time.time() - self.started_at,
            "pending_computations": self.pending,
            "inflight_keys": len(self.coalescer),
            "cache_dir": self.cache_dir,
            "fingerprint": self.fingerprint[:12],
        }), None

    async def _metrics(self, request: http.Request):
        return 200, self.registry.to_prometheus().encode("utf-8"), None

    async def _cache_stats(self, request: http.Request):
        stats = await self._loop.run_in_executor(
            self._probe_pool, self.store.stats
        )
        return 200, _json_bytes({
            "store": stats,
            "served": {
                "warm_hits": self._counter_value("repro_service_advise_warm_total"),
                "memo_hits": self._counter_value(
                    "repro_service_advise_memo_hits_total"),
                "memo_entries": len(self._memo),
                "memo_capacity": MEMO_ENTRIES,
                "computations": self._counter_value(
                    "repro_service_advise_computations_total"),
                "coalesced": self._counter_value(
                    "repro_service_advise_coalesced_total"),
            },
            "coalescer": self.coalescer.stats(),
        }), None

    def _counter_value(self, name: str) -> float:
        metric = self.registry.get(name)
        return metric.value if metric is not None else 0.0

    # --------------------------------------------------------------- advise

    async def _advise(self, request: http.Request):
        try:
            doc = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError, RecursionError) as exc:
            return 400, _json_bytes({"error": f"invalid JSON body: {exc}"}), None
        try:
            advise = parse_advise_request(doc)
        except ValidationError as exc:
            self.registry.counter(
                "repro_service_advise_rejected_total",
                "Advise requests rejected with 400.",
            ).inc()
            return 400, _json_bytes({"error": str(exc)}), None

        key = advise_key(advise, self.fingerprint)
        t0 = time.perf_counter()

        # Memo path: a repeat of a query already read back from disk.
        advice = self._memo.get(key)
        if advice is not None:
            self._memo.move_to_end(key)
            self._count_warm()
            self.registry.counter(
                "repro_service_advise_memo_hits_total",
                "Advise queries answered from the in-memory answer memo.",
            ).inc()
            return 200, _advice_body(advice, self._served(
                t0, cache_hit=True, coalesced=False, computed=False,
                cache=None, key=key, memo=True,
            )), None

        # Warm path: all underlying entries already on disk.
        probed = await self._loop.run_in_executor(
            self._probe_pool, self._probe, advise, self.cache_dir,
            self.fingerprint,
        )
        if probed is not None:
            advice_doc, counts = probed
            advice = _encode(advice_doc)
            self._remember(key, advice)
            self._count_cache(counts)
            self._count_warm()
            return 200, _advice_body(advice, self._served(
                t0, cache_hit=True, coalesced=False, computed=False,
                cache=counts, key=key,
            )), None

        # Cold path: coalesce, then dispatch or join.  Joining an existing
        # computation adds no work and is never rejected; only a request
        # that would *start* a computation feels the queue bound.
        if self.coalescer.peek(key) is None and self.pending >= self.max_queue:
            self.registry.counter(
                "repro_service_backpressure_total",
                "Advise queries rejected with 429 (queue full).",
            ).inc()
            return 429, _json_bytes({
                "error": f"computation queue full "
                         f"({self.pending}/{self.max_queue}); retry later",
            }), {"Retry-After": "1"}
        fut, leader = self.coalescer.lease(key)
        if leader:
            self.pending += 1
            self.registry.counter(
                "repro_service_advise_computations_total",
                "Underlying advise computations started (post-coalescing).",
            ).inc()
            self.registry.gauge(
                "repro_service_queue_depth",
                "Cold computations dispatched and not yet finished.",
            ).set(self.pending)
            self._loop.create_task(self._run_computation(key, fut, advise))
        else:
            self.registry.counter(
                "repro_service_advise_coalesced_total",
                "Advise queries that joined an in-flight computation.",
            ).inc()

        try:
            advice, counts = await asyncio.wait_for(
                asyncio.shield(fut), timeout=self.request_timeout_s
            )
        except asyncio.TimeoutError:
            self.registry.counter(
                "repro_service_timeouts_total",
                "Advise queries that hit the per-request timeout.",
            ).inc()
            return 504, _json_bytes({
                "error": f"computation exceeded {self.request_timeout_s}s; "
                         "it continues in the background and will be cached",
            }), None
        except Exception as exc:
            self.registry.counter(
                "repro_service_compute_errors_total",
                "Advise computations that raised.",
            ).inc()
            return 500, _json_bytes({"error": repr(exc)}), None

        if leader:
            self._count_cache(counts)
        return 200, _advice_body(_encode(advice), self._served(
            t0, cache_hit=False, coalesced=not leader, computed=leader,
            cache=counts if leader else None, key=key,
        )), None

    async def _run_computation(self, key: str, fut: asyncio.Future, advise) -> None:
        """Leader-side: run the cold computation on a shard and resolve."""
        try:
            result = await self._loop.run_in_executor(
                self._compute_pool, self._compute, advise, self.cache_dir,
                self.fingerprint, self.jobs,
            )
        except Exception as exc:
            self.coalescer.resolve(key, fut, exc=exc)
        else:
            self.coalescer.resolve(key, fut, result=result)
        finally:
            self.pending -= 1
            self.registry.gauge("repro_service_queue_depth").set(self.pending)

    def _served(self, t0, cache_hit, coalesced, computed, cache, key,
                memo=False) -> dict:
        return {
            "cache_hit": cache_hit,
            "coalesced": coalesced,
            "computed": computed,
            "memo": memo,
            "cache": cache,
            "key": key[:12],
            "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
        }

    def _remember(self, key: str, advice: bytes) -> None:
        """Keep one disk-probed answer, evicting least recently used first."""
        self._memo[key] = advice
        self._memo.move_to_end(key)
        while len(self._memo) > MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def _count_warm(self) -> None:
        self.registry.counter(
            "repro_service_advise_warm_total",
            "Advise queries answered warm: from the answer memo or from the "
            "cache alone.",
        ).inc()

    def _count_cache(self, counts: dict) -> None:
        self.registry.counter(
            "repro_service_cache_hits_total",
            "Underlying experiment-cache hits across all queries.",
        ).inc(counts.get("hits", 0))
        self.registry.counter(
            "repro_service_cache_misses_total",
            "Underlying experiment-cache misses across all queries.",
        ).inc(counts.get("misses", 0))


def serve_url(host: str, port: int) -> str:
    """Printable base URL (IPv6 hosts get brackets)."""
    if ":" in host and not host.startswith("["):
        return f"http://[{host}]:{port}"
    return f"http://{host}:{port}"
