"""The cache wired through real experiment entry points."""

import json

import pytest

from repro.cache import ExperimentCache
from repro.core.capconfig import CapConfig, CapStates
from repro.core.runs import RunSpec
from repro.core.sweep import sweep_gemm
from repro.core.tradeoff import OperationSpec, run_operation, run_config_set
from repro.experiments.parallel import parallel_starmap
from repro.hardware.catalog import gpu_spec

PLATFORM = "24-Intel-2-V100"
SPEC = OperationSpec(op="gemm", n=1920 * 4, nb=1920, precision="double")
STATES = CapStates(h_w=250.0, b_w=150.0, l_w=100.0)
CONFIG = CapConfig("HB")
ARGS = (PLATFORM, SPEC, CONFIG, STATES)


def cached_run(cache, *args):
    """One ``run_operation(*args)`` through the memo path."""
    [value] = parallel_starmap(run_operation, [args], cache=cache)
    return value


def test_run_operation_warm_equals_cold(tmp_path):
    cache = ExperimentCache(tmp_path)
    cold = cached_run(cache, *ARGS)
    assert (cache.hits, cache.misses) == (0, 1)
    warm = cached_run(cache, *ARGS)
    assert (cache.hits, cache.misses) == (1, 1)
    assert warm == cold  # decoded value identical in every field
    assert warm == run_operation(*ARGS)  # and identical to an uncached run


def test_key_covers_every_identity_field(tmp_path):
    cache = ExperimentCache(tmp_path)
    calls = [
        ARGS,
        # Any identity change must miss: seed, scheduler, states, cpu caps.
        ARGS + ("dmdas", 1),
        ARGS + ("eager",),
        (PLATFORM, SPEC, CONFIG, CapStates(h_w=250.0, b_w=140.0, l_w=100.0)),
        ARGS + ("dmdas", 0, {1: 60.0}),
    ]
    parallel_starmap(run_operation, calls, cache=cache)
    assert cache.hits == 0 and cache.misses == 5
    assert len(list(cache.store.iter_entries())) == 5


def test_fingerprint_mismatch_forces_recompute(tmp_path):
    old = ExperimentCache(tmp_path, fingerprint="code-v1")
    cached_run(old, *ARGS)
    edited = ExperimentCache(tmp_path, fingerprint="code-v2")
    cached_run(edited, *ARGS)
    assert (edited.hits, edited.misses) == (0, 1)
    same = ExperimentCache(tmp_path, fingerprint="code-v1")
    cached_run(same, *ARGS)
    assert (same.hits, same.misses) == (1, 0)


def test_corrupt_entry_recomputes_and_heals(tmp_path):
    cache = ExperimentCache(tmp_path)
    cold = cached_run(cache, *ARGS)
    [info] = list(cache.store.iter_entries())
    info.path.write_text('{"half a write')
    healed = cached_run(cache, *ARGS)
    assert healed == cold
    assert cache.corrupt == 1 and cache.misses == 2
    with open(info.path) as fh:  # the rewrite replaced the torn entry
        assert json.load(fh)["key"] == info.key
    again = ExperimentCache(tmp_path)
    assert cached_run(again, *ARGS) == cold
    assert again.hits == 1


def test_parallel_starmap_cache_path_preserves_order(tmp_path):
    cache = ExperimentCache(tmp_path)
    calls = [ARGS + ("dmdas", seed) for seed in range(4)]
    # Pre-populate one entry so the pool sees a hit/miss mixture.
    cached_run(cache, *calls[2])
    cold = parallel_starmap(run_operation, calls, jobs=2, cache=cache)
    assert cache.hits == 1 and cache.misses == 1 + 3  # workers wrote through
    serial = parallel_starmap(run_operation, calls, jobs=1)
    assert cold == serial  # input order kept, values bit-identical
    warm_cache = ExperimentCache(tmp_path)
    warm = parallel_starmap(run_operation, calls, jobs=2, cache=warm_cache)
    assert warm == serial
    assert warm_cache.hits == 4 and warm_cache.misses == 0


def test_run_config_set_threads_cache(tmp_path):
    cache = ExperimentCache(tmp_path)
    configs = [CapConfig("HH"), CapConfig("HB")]
    cold = run_config_set(PLATFORM, SPEC, configs, STATES, cache=cache)
    warm = run_config_set(PLATFORM, SPEC, configs, STATES, cache=cache)
    assert warm == cold
    assert cache.hits == 2 and cache.misses == 2


def test_sweep_gemm_cached_and_spec_objects_bypass(tmp_path):
    cache = ExperimentCache(tmp_path)
    cold = sweep_gemm("V100-PCIE-32GB", 1024, "double", cache=cache)
    warm = sweep_gemm("V100-PCIE-32GB", 1024, "double", cache=cache)
    assert warm == cold and cache.hits == 1 and cache.misses == 1
    # Ad-hoc GPUSpec objects have no canonical identity: always computed.
    spec = gpu_spec("V100-PCIE-32GB")
    direct = sweep_gemm(spec, 1024, "double", cache=cache)
    assert direct == cold and cache.hits == 1 and cache.misses == 1


def test_uncacheable_value_type_raises():
    from repro.cache.experiment import encode_value

    with pytest.raises(TypeError):
        encode_value(object())


def test_chaos_baseline_served_from_cache(tmp_path):
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import preset_plan

    plan = preset_plan("kill-throttle", seed=0)
    op = OperationSpec(op="potrf", n=1920 * 4, nb=1920, precision="double")
    cache = ExperimentCache(tmp_path / "cache")
    spec = RunSpec(PLATFORM, op, CONFIG, STATES, plan=plan)
    cold = run_chaos(spec, cache=cache)
    assert cold.baseline is not None and cache.misses == 1
    warm = run_chaos(spec, cache=cache)
    assert warm.baseline is None and cache.hits == 1
    assert warm.summary == cold.summary
    uncached = run_chaos(spec)
    assert uncached.summary == cold.summary
