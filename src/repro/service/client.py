"""Blocking client for the cap-advisor service.

Used by the test suite, the CI smoke job and the ``advisor-mixed``
workload of ``perfbench/``.  Thin on purpose: one
``http.client.HTTPConnection`` per client, JSON in/out.  Not thread-safe —
give each load-generator thread its own client.

Transient failures are handled by a bounded :class:`RetryPolicy` with
jittered exponential backoff.  By default only connection-level failures
(server closed a keep-alive socket, reset, refused during a restart) are
retried; HTTP backpressure retries are opt-in via
``RetryPolicy(retry_statuses=(429,))`` — batch consumers want the client
to honor ``Retry-After`` and wait, interactive callers and the
backpressure tests want the raw 429.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class ServiceResponse:
    """One decoded HTTP exchange."""

    status: int
    doc: Any
    text: str
    headers: dict[str, str]

    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with full-jitter exponential backoff.

    ``max_attempts`` counts every try including the first; the delay before
    retry ``k`` is drawn uniformly from ``[0, min(cap, base * 2**(k-1))]``
    (full jitter — decorrelates synchronized clients hammering a recovering
    server).  A ``Retry-After`` header on a retryable status overrides the
    computed delay, clamped to ``retry_after_cap_s``.
    """

    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: HTTP statuses to retry (connection failures are always retried).
    retry_statuses: tuple = ()
    #: Ceiling on an honored ``Retry-After`` (a misbehaving server must
    #: not park the client for minutes).
    retry_after_cap_s: float = 10.0

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        bound = min(self.backoff_cap_s,
                    self.backoff_base_s * 2.0 ** (attempt - 1))
        return rng.uniform(0.0, bound)


#: Errors meaning the TCP connection is gone (server drain, restart, idle
#: close, crash); always retryable — the request never reached a handler
#: or the response was lost, and advise queries are idempotent.
_CONNECTION_ERRORS = (
    http.client.NotConnected,
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionRefusedError,
)


class AdvisorClient:
    """Talk to one :class:`~repro.service.server.AdvisorServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8750,
                 timeout_s: float = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.retry = retry if retry is not None else RetryPolicy()
        self.n_retries = 0
        self._rng = rng if rng is not None else random.Random()
        self._sleep = sleep
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------ transport

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> ServiceResponse:
        policy = self.retry
        attempt = 0
        while True:
            attempt += 1
            try:
                response = self._request_once(method, path, body)
            except _CONNECTION_ERRORS:
                self.close()
                if attempt >= policy.max_attempts:
                    raise
                self._backoff(policy.delay_s(attempt, self._rng))
                continue
            if (response.status in policy.retry_statuses
                    and attempt < policy.max_attempts):
                self._backoff(self._retry_after(response)
                              if "retry-after" in response.headers
                              else policy.delay_s(attempt, self._rng))
                continue
            return response

    def _backoff(self, delay: float) -> None:
        self.n_retries += 1
        if delay > 0:
            self._sleep(delay)

    def _retry_after(self, response: ServiceResponse) -> float:
        try:
            hinted = float(response.headers["retry-after"])
        except ValueError:
            return self.retry.backoff_base_s
        return max(0.0, min(hinted, self.retry.retry_after_cap_s))

    def _request_once(self, method: str, path: str,
                      body: Optional[bytes]) -> ServiceResponse:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        raw = response.read()
        if response.will_close:
            self.close()
        text = raw.decode("utf-8", errors="replace")
        doc: Any = None
        if "application/json" in (response.getheader("Content-Type") or ""):
            try:
                doc = json.loads(text)
            except ValueError:
                doc = None
        return ServiceResponse(
            status=response.status, doc=doc, text=text,
            headers={k.lower(): v for k, v in response.getheaders()},
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "AdvisorClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ endpoints

    def advise(self, doc: dict) -> ServiceResponse:
        """``POST /v1/advise`` with a request document."""
        return self._request(
            "POST", "/v1/advise", json.dumps(doc).encode("utf-8")
        )

    def healthz(self) -> ServiceResponse:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> str:
        """The Prometheus text snapshot from ``GET /v1/metrics``."""
        return self._request("GET", "/v1/metrics").text

    def cache_stats(self) -> ServiceResponse:
        return self._request("GET", "/v1/cache/stats")


def advice_bytes(response: ServiceResponse) -> bytes:
    """The deterministic bytes of a response's advice document.

    Cold and warm answers to the same query must agree on these bytes
    exactly — this is the helper the byte-identity checks use.
    """
    return json.dumps(
        response.doc["advice"], sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def wait_ready(host: str, port: int, timeout_s: float = 30.0,
               interval_s: float = 0.05) -> bool:
    """Poll ``/v1/healthz`` until the server answers 200, or time out."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with AdvisorClient(host, port, timeout_s=2.0) as client:
                if client.healthz().status == 200:
                    return True
        except (ConnectionError, socket.timeout, OSError):
            pass
        time.sleep(interval_s)
    return False
