"""Tests for the batched cache path: read_many / load_many / starmap reuse."""

import json

import pytest

from repro.cache import ExperimentCache
from repro.cache.store import CacheStore, CorruptEntry
from repro.core.sweep import sweep_gemm
from repro.experiments.parallel import parallel_starmap

#: (model, n, precision, step_pct) argsets — cacheable sweep_gemm calls.
_SWEEPS = [
    ("V100-PCIE-32GB", 256, "double", 25.0),
    ("V100-PCIE-32GB", 512, "double", 25.0),
    ("A100-SXM4-40GB", 256, "single", 25.0),
    ("A100-PCIE-40GB", 256, "double", 25.0),
]


# ------------------------------------------------------------------ read_many


def test_read_many_preserves_order_and_collapses_duplicates(tmp_path):
    store = CacheStore(tmp_path)
    store.write("aa01", "lbl", {"v": 1})
    store.write("bb02", "lbl", {"v": 2})
    out = store.read_many(["bb02", "aa01", "bb02", "ee99"])
    assert list(out) == ["bb02", "aa01", "ee99"]
    assert out["aa01"] == ("lbl", {"v": 1})
    assert out["bb02"] == ("lbl", {"v": 2})
    assert out["ee99"] is None


def test_read_many_returns_corrupt_entries_as_values(tmp_path):
    store = CacheStore(tmp_path)
    store.write("aa01", "lbl", {"v": 1})
    store.write("bb02", "lbl", {"v": 2})
    store.path_for("bb02").write_text("{not json", encoding="utf-8")
    out = store.read_many(["aa01", "bb02"])
    assert out["aa01"] == ("lbl", {"v": 1})
    assert isinstance(out["bb02"], CorruptEntry)
    # The single-key path raises for the same entry.
    with pytest.raises(CorruptEntry):
        store.read("bb02")


def test_read_many_payloads_round_trip_json(tmp_path):
    store = CacheStore(tmp_path)
    payload = {"nested": [1, 2, {"x": "y"}], "f": 0.5}
    store.write("abc123", "label", payload)
    (_, value) = store.read_many(["abc123"])["abc123"]
    assert value == json.loads(json.dumps(payload))


# ------------------------------------------------------------------ load_many


def _warm_sweeps(root):
    """Populate a cache with the _SWEEPS results; returns the keys in order."""
    cache = ExperimentCache(root, fingerprint="f")
    keys = []
    for args in _SWEEPS:
        key = cache.key_for(sweep_gemm, args)
        cache.save(key, sweep_gemm(*args))
        keys.append(key)
    return keys


def test_load_many_matches_sequential_load(tmp_path):
    keys = _warm_sweeps(tmp_path)
    cold = ExperimentCache(tmp_path, fingerprint="f")
    missing = cold.key_for(sweep_gemm, ("V100-PCIE-32GB", 999, "double", 25.0))
    probe_keys = keys[:2] + [missing] + keys[2:]

    batched = ExperimentCache(tmp_path, fingerprint="f")
    got = batched.load_many(probe_keys)
    sequential = ExperimentCache(tmp_path, fingerprint="f")
    expect = {k: sequential.load(k) for k in probe_keys}

    assert got == expect
    assert list(got) == probe_keys
    assert (batched.hits, batched.misses) == (sequential.hits, sequential.misses)
    assert (batched.hits, batched.misses) == (4, 1)


def test_load_many_self_heals_corruption(tmp_path):
    keys = _warm_sweeps(tmp_path)
    store = CacheStore(tmp_path)
    store.path_for(keys[0]).write_text("{not json", encoding="utf-8")

    b = ExperimentCache(tmp_path, fingerprint="f")
    loaded = b.load_many(keys)
    hit, value = loaded[keys[0]]
    assert hit is False and value is None
    assert b.corrupt == 1 and b.misses == 1 and b.hits == len(keys) - 1
    # The poisoned entry was discarded: the next read is a clean miss.
    assert b.store.read(keys[0]) is None


def test_load_many_duplicate_keys_count_once(tmp_path):
    keys = _warm_sweeps(tmp_path)
    b = ExperimentCache(tmp_path, fingerprint="f")
    out = b.load_many([keys[0], keys[0], keys[0]])
    assert list(out) == [keys[0]]
    assert b.hits == 1 and b.misses == 0


# ------------------------------------------------------- starmap batched path


def test_parallel_starmap_warm_equals_cold(tmp_path):
    cold_cache = ExperimentCache(tmp_path, fingerprint="f")
    cold = parallel_starmap(sweep_gemm, _SWEEPS, jobs=1, cache=cold_cache)
    assert cold_cache.misses == len(_SWEEPS) and cold_cache.hits == 0

    warm_cache = ExperimentCache(tmp_path, fingerprint="f")
    warm = parallel_starmap(sweep_gemm, _SWEEPS, jobs=1, cache=warm_cache)
    assert warm == cold == [sweep_gemm(*args) for args in _SWEEPS]
    assert warm_cache.hits == len(_SWEEPS) and warm_cache.misses == 0


def test_parallel_starmap_partial_warm(tmp_path):
    seed = ExperimentCache(tmp_path, fingerprint="f")
    parallel_starmap(sweep_gemm, _SWEEPS[:2], jobs=1, cache=seed)

    cache = ExperimentCache(tmp_path, fingerprint="f")
    out = parallel_starmap(sweep_gemm, _SWEEPS, jobs=1, cache=cache)
    assert out == [sweep_gemm(*args) for args in _SWEEPS]
    assert cache.hits == 2 and cache.misses == 2


# ---------------------------------------------------------------- ProbeCache


def test_probe_cache_load_many_raises_cold_miss(tmp_path):
    from repro.service.advisor import ColdMiss, ProbeCache

    keys = _warm_sweeps(tmp_path)
    probe = ProbeCache(tmp_path, fingerprint="f")
    loaded = probe.load_many(keys)
    assert all(loaded[k][0] is True for k in keys)
    assert loaded[keys[0]][1] == sweep_gemm(*_SWEEPS[0])

    cold_key = probe.key_for(
        sweep_gemm, ("V100-PCIE-32GB", 4096, "single", 25.0)
    )
    with pytest.raises(ColdMiss):
        probe.load_many(keys + [cold_key])
    with pytest.raises(AssertionError):
        probe.save(cold_key, {"sum": 198})
