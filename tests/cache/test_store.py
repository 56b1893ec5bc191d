"""On-disk store: atomicity, integrity, inspection and hygiene."""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cache.experiment import ExperimentCache
from repro.cache.store import STORE_SCHEMA, CacheStore, CorruptEntry
from repro.cache.keys import digest


def k(n: int) -> str:
    return digest({"n": n})


def test_roundtrip_and_missing(tmp_path):
    store = CacheStore(tmp_path)
    key = k(0)
    assert store.read(key) is None
    store.write(key, "json", {"a": 1.5}, meta={"label": "x"})
    assert store.read(key) == ("json", {"a": 1.5})


def test_malformed_key_rejected(tmp_path):
    store = CacheStore(tmp_path)
    for bad in ("", "xy", "ZZZZ", "../../etc/passwd", "ab/../cd"):
        with pytest.raises(ValueError):
            store.path_for(bad)


def test_corrupt_payload_detected_and_recovery(tmp_path):
    store = CacheStore(tmp_path)
    key = k(1)
    path = store.write(key, "json", {"a": 1})
    doc = json.loads(path.read_text())
    doc["payload"] = {"a": 2}  # flip the payload, keep the old checksum
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptEntry, match="checksum"):
        store.read(key)
    store.discard(key)
    assert store.read(key) is None  # corrupt entry gone; next run recomputes


def test_invalid_json_and_wrong_schema_and_wrong_key(tmp_path):
    store = CacheStore(tmp_path)
    key = k(2)
    path = store.write(key, "json", 1)
    path.write_text("{not json")
    with pytest.raises(CorruptEntry, match="JSON"):
        store.read(key)
    store.write(key, "json", 1)
    doc = json.loads(path.read_text())
    doc["schema"] = STORE_SCHEMA + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptEntry, match="schema"):
        store.read(key)
    other = k(3)
    store.write(other, "json", 1)
    os.replace(store.path_for(other), path)  # stored under the wrong name
    with pytest.raises(CorruptEntry, match="key"):
        store.read(key)


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"schema": 1, "key": "%s", "kind": "json", "checksum": "", '
    '"payload": NaN}',
], ids=["deeply-nested", "nan-payload"])
def test_undecodable_entry_is_corrupt_and_heals(tmp_path, text):
    store = CacheStore(tmp_path)
    good, bad = k(4), k(5)
    store.write(good, "json", [1])
    path = store.write(bad, "json", [2])
    path.write_text(text.replace("%s", bad))
    with pytest.raises(CorruptEntry):
        store.read(bad)
    # One rotten entry cannot poison a batch ...
    batch = store.read_many([good, bad])
    assert batch[good] == ("json", [1])
    assert isinstance(batch[bad], CorruptEntry)
    # ... and a cache lookup treats it as a miss and drops it.
    cache = ExperimentCache(tmp_path, fingerprint="f")
    assert cache.load(bad) == (False, None)
    assert cache.corrupt == 1 and not path.exists()


def test_stats_verify_and_clear(tmp_path):
    store = CacheStore(tmp_path)
    store.write(k(10), "ConfigMetrics", {"x": 1})
    store.write(k(11), "SweepPoints", [1, 2])
    path = store.write(k(12), "json", 3)
    path.write_text("broken")
    stats = store.stats()
    assert stats["entries"] == 3 and stats["corrupt"] == 1
    assert stats["by_kind"] == {"ConfigMetrics": 1, "SweepPoints": 1}
    assert stats["bytes"] == store.size_bytes() > 0
    ok, problems = store.verify()
    assert ok == 2 and len(problems) == 1
    assert store.clear() == 3
    assert store.stats()["entries"] == 0


def test_gc_by_age_then_size(tmp_path):
    store = CacheStore(tmp_path)
    now = 1_000_000.0
    for i in range(4):
        path = store.write(k(20 + i), "json", "x" * 100)
        os.utime(path, (now - 100 * (4 - i), now - 100 * (4 - i)))
    # ages: 400, 300, 200, 100 seconds
    out = store.gc(max_age_s=250.0, now=now)
    assert out["removed"] == 2 and out["freed_bytes"] > 0
    sizes = [info.size for info in store.iter_entries()]
    out = store.gc(max_size_bytes=sizes[0], now=now)
    assert out["removed"] == 1  # oldest of the two survivors evicted
    assert store.stats()["entries"] == 1


@pytest.mark.parametrize("limits", [
    {"max_size_bytes": -1}, {"max_size_bytes": float("inf")},
    {"max_age_s": -86400.0}, {"max_age_s": float("nan")},
])
def test_gc_rejects_negative_and_non_finite_limits(tmp_path, limits):
    store = CacheStore(tmp_path)
    for i in range(3):
        store.write(k(30 + i), "json", {"i": i})
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        store.gc(**limits)
    assert store.stats()["entries"] == 3


def _write_one(args):
    root, key, i = args
    CacheStore(root).write(key, "json", {"writer": i, "pad": "y" * 2000})
    return i


def test_concurrent_writers_never_tear(tmp_path):
    # Many processes hammer the SAME key; the surviving entry must be one
    # complete write, never an interleaving of several.
    key = k(99)
    with ProcessPoolExecutor(max_workers=4) as pool:
        list(pool.map(_write_one, [(str(tmp_path), key, i) for i in range(16)]))
    kind, payload = CacheStore(tmp_path).read(key)
    assert kind == "json"
    assert payload["writer"] in range(16) and payload["pad"] == "y" * 2000
    assert not list(tmp_path.rglob("*.tmp"))  # no temp droppings left behind
