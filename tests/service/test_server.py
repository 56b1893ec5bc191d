"""End-to-end server tests over real sockets.

The expensive paths (cold compute) are exercised twice: once for real
against the tiny-scale simulator (byte-identity with the warm answer),
and once with injected slow/failing computations to pin coalescing,
backpressure, timeout and error semantics without burning wall time.
"""

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import server as server_module
from repro.service.client import AdvisorClient, advice_bytes
from repro.service.server import _advice_body, _encode, _json_bytes


def _fake_compute(delay_s=0.0, fail_first=0, payload="fake"):
    """A stand-in for ``compute_advice`` with controllable behaviour."""
    state = {"calls": 0}
    lock = threading.Lock()

    def compute(advise, cache_dir, fingerprint, jobs):
        with lock:
            state["calls"] += 1
            n = state["calls"]
        if delay_s:
            time.sleep(delay_s)
        if n <= fail_first:
            raise RuntimeError(f"injected failure #{n}")
        advice = {"payload": payload, "request": advise.doc(), "call": n}
        return advice, {"hits": 0, "misses": 1}

    compute.state = state
    return compute


def _always_cold(advise, cache_dir, fingerprint):
    return None


def _fake_probe():
    """A stand-in for ``probe_advice`` that always finds its answer warm."""
    state = {"calls": 0}

    def probe(advise, cache_dir, fingerprint):
        state["calls"] += 1
        return {"payload": "probed", "request": advise.doc()}, {"hits": 2, "misses": 0}

    probe.state = state
    return probe


# ------------------------------------------------------------- real compute

def test_cold_then_warm_byte_identical(start_server, client_for, tiny_request):
    server = start_server()
    client = client_for(server)

    cold = client.advise(tiny_request)
    assert cold.status == 200, cold.text
    served = cold.doc["served"]
    assert served["cache_hit"] is False
    assert served["computed"] is True
    assert served["cache"]["misses"] > 0

    warm = client.advise(tiny_request)
    assert warm.status == 200
    assert warm.doc["served"]["cache_hit"] is True
    assert warm.doc["served"]["cache"]["misses"] == 0
    assert warm.doc["served"]["cache"]["hits"] > 0

    # The headline guarantee: the advice document — recommendation,
    # candidates, provenance and all — is byte-for-byte identical.
    assert advice_bytes(cold) == advice_bytes(warm)

    rec = warm.doc["advice"]["recommendation"]
    assert rec["config"] in {
        c["config"] for c in warm.doc["advice"]["candidates"]
    }
    assert warm.doc["advice"]["provenance"]["fingerprint"] == server.fingerprint


def test_warm_is_fast(start_server, client_for, tiny_request):
    server = start_server()
    client = client_for(server)
    assert client.advise(tiny_request).status == 200  # prime

    elapsed = []
    for _ in range(10):
        t0 = time.perf_counter()
        response = client.advise(tiny_request)
        elapsed.append(time.perf_counter() - t0)
        assert response.doc["served"]["cache_hit"] is True
    # The acceptance bar is p99 < 50 ms under load; a lone client on a
    # loopback socket should clear the same bar with every sample.
    assert max(elapsed) < 0.05, f"warm samples too slow: {elapsed}"


def test_shared_cache_dir_warms_across_servers(
    start_server, client_for, tiny_request, tmp_path
):
    shared = tmp_path / "shared-cache"
    first = start_server(cache_dir=shared)
    assert client_for(first).advise(tiny_request).status == 200

    second = start_server(cache_dir=shared)
    response = client_for(second).advise(tiny_request)
    assert response.status == 200
    assert response.doc["served"]["cache_hit"] is True


# -------------------------------------------------------------- HTTP edges

def test_routing_errors(start_server, client_for):
    server = start_server()
    client = client_for(server)

    health = client.healthz()
    assert health.status == 200
    assert health.doc["status"] == "ok"

    missing = client._request("GET", "/nope")
    assert missing.status == 404
    assert "/v1/advise" in missing.doc["routes"]

    wrong_method = client._request("GET", "/v1/advise")
    assert wrong_method.status == 405
    assert wrong_method.headers["allow"] == "POST"

    bad_json = client._request("POST", "/v1/advise", b"{not json")
    assert bad_json.status == 400
    assert "invalid JSON" in bad_json.doc["error"]

    deep_json = client._request("POST", "/v1/advise", b"[" * 100_000)
    assert deep_json.status == 400
    assert "invalid JSON body" in deep_json.doc["error"]

    bad_request = client.advise({"platform": "atlantis"})
    assert bad_request.status == 400
    assert "atlantis" in bad_request.doc["error"]


def test_metrics_and_cache_stats(start_server, client_for, tiny_request):
    server = start_server()
    client = client_for(server)
    client.advise(tiny_request)
    client.advise(tiny_request)

    text = client.metrics()
    assert "# TYPE repro_service_requests_total counter" in text
    assert 'repro_service_requests_total{route="advise",status="200"} 2' in text
    assert "repro_service_advise_computations_total 1" in text
    assert "repro_service_advise_warm_total 1" in text
    assert "repro_service_up 1" in text
    assert "repro_service_request_seconds_bucket" in text

    stats = client.cache_stats()
    assert stats.status == 200
    assert stats.doc["store"]["entries"] > 0
    assert stats.doc["served"]["computations"] == 1.0
    assert stats.doc["served"]["warm_hits"] == 1.0
    assert stats.doc["coalescer"]["inflight"] == 0


# ---------------------------------------------------------------- answer memo

def test_memo_answer_equals_disk_warm_and_cold(start_server, client_for,
                                               tiny_request):
    server = start_server()
    client = client_for(server)

    cold = client.advise(tiny_request)
    disk = client.advise(tiny_request)
    memo = client.advise(tiny_request)
    assert [r.status for r in (cold, disk, memo)] == [200] * 3
    assert [r.doc["served"]["memo"] for r in (cold, disk, memo)] == [
        False, False, True]
    assert memo.doc["served"]["cache_hit"] is True
    assert memo.doc["served"]["computed"] is False
    assert memo.doc["served"]["cache"] is None  # no cache entry was read
    assert advice_bytes(memo) == advice_bytes(disk) == advice_bytes(cold)

    # The spliced body is the full-document encoding, byte for byte.
    served = memo.doc["served"]
    assert memo.text.encode("utf-8") == _json_bytes(
        {"advice": memo.doc["advice"], "served": served})

    # A memo hit is a warm answer that read no cache entry.
    disk_hits = disk.doc["served"]["cache"]["hits"]
    assert server._counter_value("repro_service_advise_warm_total") == 2
    assert server._counter_value("repro_service_advise_memo_hits_total") == 1
    assert server._counter_value("repro_service_cache_hits_total") == (
        cold.doc["served"]["cache"]["hits"] + disk_hits)
    assert "repro_service_advise_memo_hits_total 1" in client.metrics()

    stats = client.cache_stats().doc["served"]
    assert stats["memo_hits"] == 1
    assert stats["memo_entries"] == 1
    assert stats["memo_capacity"] == server_module.MEMO_ENTRIES


@pytest.mark.parametrize("advice", [
    {"schema": 1, "candidates": [{"config": "HB", "score": 0.1 + 0.2}]},
    {"name": "caf\u00e9 \u26a1", "nested": {"z": [1, 2.5e-300], "a": None}},
    [],
    "text",
])
def test_spliced_body_equals_json_bytes(advice):
    served = {"cache_hit": True, "memo": True, "cache": None,
              "key": "0123456789ab", "elapsed_ms": 0.125}
    assert _advice_body(_encode(advice), served) == _json_bytes(
        {"advice": advice, "served": served})


def test_memo_evicts_least_recently_used_first(start_server, tiny_request,
                                               monkeypatch):
    monkeypatch.setattr(server_module, "MEMO_ENTRIES", 2)
    server = start_server()
    probe = _fake_probe()
    server._probe = probe
    server._compute = _fake_compute()

    def memo(seed):
        with AdvisorClient("127.0.0.1", server.port) as client:
            response = client.advise(dict(tiny_request, seed=seed))
        assert response.status == 200
        return response.doc["served"]["memo"]

    assert [memo(0), memo(1)] == [False, False]
    assert memo(0) is True         # 0 is now the most recently used
    assert memo(2) is False        # fills past capacity: evicts 1
    assert len(server._memo) == 2
    assert [memo(0), memo(2)] == [True, True]
    assert memo(1) is False        # evicted, probed again: evicts 0
    assert memo(0) is False
    assert probe.state["calls"] == 5


def test_memo_fills_only_from_a_disk_probe(start_server, tiny_request):
    server = start_server(max_queue=4)
    compute = _fake_compute(delay_s=0.3, fail_first=1)
    server._compute = compute
    server._probe = _always_cold

    def query(_):
        with AdvisorClient("127.0.0.1", server.port) as client:
            return client.advise(tiny_request)

    with ThreadPoolExecutor(max_workers=3) as pool:
        failed = list(pool.map(query, range(3)))  # one failing computation
        assert [r.status for r in failed] == [500] * 3
        joined = list(pool.map(query, range(3)))  # one leader, two joins
    again = query(None)                           # a fresh computation

    assert [r.status for r in joined + [again]] == [200] * 4
    assert sum(r.doc["served"]["coalesced"] for r in joined) == 2
    assert not any(r.doc["served"]["memo"] for r in joined + [again])
    assert compute.state["calls"] == 3
    assert len(server._memo) == 0
    assert server._counter_value("repro_service_advise_memo_hits_total") == 0


# ------------------------------------------------- injected compute behaviour

def _assert_burst_coalesces(start_server, tiny_request, n_clients):
    """N identical in-flight cold queries -> exactly one computation."""
    server = start_server(max_queue=4)
    compute = _fake_compute(delay_s=0.3)
    server._compute = compute
    server._probe = _always_cold

    def query(_):
        with AdvisorClient("127.0.0.1", server.port) as client:
            return client.advise(tiny_request)

    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        responses = list(pool.map(query, range(n_clients)))

    assert all(r.status == 200 for r in responses)
    assert compute.state["calls"] == 1
    bodies = {advice_bytes(r) for r in responses}
    assert len(bodies) == 1  # every waiter got the leader's answer
    assert sum(r.doc["served"]["computed"] for r in responses) == 1
    assert sum(r.doc["served"]["coalesced"] for r in responses) == n_clients - 1


def test_coalescing_burst_single_computation(start_server, tiny_request):
    _assert_burst_coalesces(start_server, tiny_request, n_clients=16)


def test_coalescing_burst_of_64_single_computation(start_server, tiny_request):
    _assert_burst_coalesces(start_server, tiny_request, n_clients=64)


def test_distinct_keys_compute_separately(start_server, tiny_request):
    """M distinct + N identical -> exactly M+1 computations."""
    server = start_server(max_queue=8)
    compute = _fake_compute(delay_s=0.2)
    server._compute = compute
    server._probe = _always_cold

    queries = [dict(tiny_request, seed=i) for i in range(3)]  # M+1 = 3 keys
    queries += [dict(tiny_request, seed=0)] * 4               # N identical

    def query(doc):
        with AdvisorClient("127.0.0.1", server.port) as client:
            return client.advise(doc)

    with ThreadPoolExecutor(max_workers=len(queries)) as pool:
        responses = list(pool.map(query, queries))

    assert all(r.status == 200 for r in responses)
    assert compute.state["calls"] == 3
    assert sum(r.doc["served"]["computed"] for r in responses) == 3


def test_queue_full_rejects_new_keys_but_joins_existing(
    start_server, tiny_request
):
    server = start_server(max_queue=1)
    compute = _fake_compute(delay_s=0.6)
    server._compute = compute
    server._probe = _always_cold

    def query(doc):
        with AdvisorClient("127.0.0.1", server.port) as client:
            return client.advise(doc)

    with ThreadPoolExecutor(max_workers=3) as pool:
        leader = pool.submit(query, dict(tiny_request, seed=0))
        deadline = time.monotonic() + 5
        while server.pending < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.pending == 1

        # A *distinct* key would need a second computation: rejected.
        rejected = query(dict(tiny_request, seed=99))
        assert rejected.status == 429
        assert rejected.headers["retry-after"] == "1"
        assert "queue full" in rejected.doc["error"]

        # An *identical* key joins the in-flight computation: accepted.
        joiner = pool.submit(query, dict(tiny_request, seed=0))
        assert joiner.result(timeout=10).status == 200
        assert leader.result(timeout=10).status == 200

    assert compute.state["calls"] == 1
    metrics = AdvisorClient("127.0.0.1", server.port).metrics()
    assert "repro_service_backpressure_total 1" in metrics


def test_request_timeout_504_but_computation_completes(
    start_server, tiny_request
):
    server = start_server(request_timeout_s=0.1)
    compute = _fake_compute(delay_s=0.5)
    server._compute = compute
    server._probe = _always_cold

    with AdvisorClient("127.0.0.1", server.port) as client:
        slow = client.advise(tiny_request)
        assert slow.status == 504
        assert "background" in slow.doc["error"]

        # The shielded computation keeps running and resolves the flight.
        deadline = time.monotonic() + 5
        while len(server.coalescer) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert len(server.coalescer) == 0
        assert compute.state["calls"] == 1
        assert "repro_service_timeouts_total 1" in client.metrics()


def test_compute_failure_returns_500_everywhere_then_recovers(
    start_server, tiny_request
):
    server = start_server()
    compute = _fake_compute(delay_s=0.2, fail_first=1)
    server._compute = compute
    server._probe = _always_cold

    def query(_):
        with AdvisorClient("127.0.0.1", server.port) as client:
            return client.advise(tiny_request)

    with ThreadPoolExecutor(max_workers=4) as pool:
        responses = list(pool.map(query, range(4)))

    # Every request of the first wave shared the one failed computation.
    assert [r.status for r in responses] == [500] * 4
    assert all("injected failure" in r.doc["error"] for r in responses)
    assert compute.state["calls"] == 1

    # Failure was not cached: the next request starts fresh and succeeds.
    retry = query(None)
    assert retry.status == 200
    assert compute.state["calls"] == 2
    metrics = AdvisorClient("127.0.0.1", server.port).metrics()
    assert "repro_service_compute_errors_total 4" in metrics


# -------------------------------------------------------------------- drain

def test_drain_finishes_inflight_request(start_server, tiny_request):
    server = start_server(drain_timeout_s=5.0)
    compute = _fake_compute(delay_s=0.4)
    server._compute = compute
    server._probe = _always_cold

    result = {}

    def slow_query():
        with AdvisorClient("127.0.0.1", server.port) as client:
            result["response"] = client.advise(tiny_request)

    thread = threading.Thread(target=slow_query)
    thread.start()
    deadline = time.monotonic() + 5
    while server.pending < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.pending == 1

    server.stop_threadsafe()  # SIGTERM equivalent
    thread.join(timeout=10)
    assert not thread.is_alive()
    # The in-flight request was answered, not cut off mid-computation.
    assert result["response"].status == 200
    assert result["response"].doc["served"]["computed"] is True
    # (fixture teardown asserts the server thread itself drains cleanly)


def test_healthz_payload_shape(start_server, client_for):
    server = start_server()
    doc = client_for(server).healthz().doc
    assert doc["pid"] == os.getpid()  # CI uses this to address SIGTERM
    assert doc["uptime_s"] >= 0
    assert doc["pending_computations"] == 0
    assert doc["inflight_keys"] == 0
    assert doc["fingerprint"] == server.fingerprint[:12]
    assert json.dumps(doc)  # JSON-clean


def test_two_shards_give_the_same_advice_as_one(start_server, tmp_path):
    """Concurrent cold computations on two shard threads must not read
    each other's simulated devices: the NVML binding is per thread."""
    menu = [("24-Intel-2-V100", "gemm", "double"),
            ("24-Intel-2-V100", "potrf", "double"),
            ("64-AMD-2-A100", "gemm", "single"),
            ("64-AMD-2-A100", "potrf", "double")]
    queries = [
        {"platform": p, "op": op, "precision": prec, "scale": "tiny",
         "seed": seed}
        for seed in (11, 12) for p, op, prec in menu
    ]

    def session(shards):
        server = start_server(cache_dir=tmp_path / f"cache-{shards}",
                              shards=shards, jobs=1)

        def query(doc):
            with AdvisorClient("127.0.0.1", server.port) as client:
                response = client.advise(doc)
            assert response.status == 200, response.text
            assert response.doc["served"]["computed"] is True
            return advice_bytes(response)

        with ThreadPoolExecutor(max_workers=len(queries)) as pool:
            return list(pool.map(query, queries))

    assert session(2) == session(1)
