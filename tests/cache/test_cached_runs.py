"""The cache wired through real experiment entry points."""

import json

import pytest

from repro.cache import ExperimentCache
from repro.core.capconfig import CapConfig, CapStates
from repro.core.sweep import sweep_gemm
from repro.core.tradeoff import OperationSpec, run_operation, run_config_set
from repro.experiments.parallel import parallel_starmap
from repro.hardware.catalog import gpu_spec

PLATFORM = "24-Intel-2-V100"
SPEC = OperationSpec(op="gemm", n=1920 * 4, nb=1920, precision="double")
STATES = CapStates(h_w=250.0, b_w=150.0, l_w=100.0)
CONFIG = CapConfig("HB")
ARGS = (PLATFORM, SPEC, CONFIG, STATES)


def test_run_operation_warm_equals_cold(tmp_path):
    cache = ExperimentCache(tmp_path)
    cold = run_operation(*ARGS, cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    warm = run_operation(*ARGS, cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert warm == cold  # decoded value identical in every field
    assert warm == run_operation(*ARGS)  # and identical to an uncached run


def test_key_covers_every_identity_field(tmp_path):
    cache = ExperimentCache(tmp_path)
    run_operation(*ARGS, cache=cache)
    # Any identity change must miss: seed, scheduler, states, cpu caps.
    run_operation(*ARGS, seed=1, cache=cache)
    run_operation(*ARGS, scheduler="eager", cache=cache)
    run_operation(PLATFORM, SPEC, CONFIG,
                  CapStates(h_w=250.0, b_w=140.0, l_w=100.0), cache=cache)
    run_operation(*ARGS, cpu_caps={1: 60.0}, cache=cache)
    assert cache.hits == 0 and cache.misses == 5


def test_fingerprint_mismatch_forces_recompute(tmp_path):
    old = ExperimentCache(tmp_path, fingerprint="code-v1")
    run_operation(*ARGS, cache=old)
    edited = ExperimentCache(tmp_path, fingerprint="code-v2")
    run_operation(*ARGS, cache=edited)
    assert (edited.hits, edited.misses) == (0, 1)
    same = ExperimentCache(tmp_path, fingerprint="code-v1")
    run_operation(*ARGS, cache=same)
    assert (same.hits, same.misses) == (1, 0)


def test_corrupt_entry_recomputes_and_heals(tmp_path):
    cache = ExperimentCache(tmp_path)
    cold = run_operation(*ARGS, cache=cache)
    [info] = list(cache.store.iter_entries())
    info.path.write_text('{"half a write')
    healed = run_operation(*ARGS, cache=cache)
    assert healed == cold
    assert cache.corrupt == 1 and cache.misses == 2
    with open(info.path) as fh:  # the rewrite replaced the torn entry
        assert json.load(fh)["key"] == info.key
    again = ExperimentCache(tmp_path)
    assert run_operation(*ARGS, cache=again) == cold
    assert again.hits == 1


def test_parallel_starmap_cache_path_preserves_order(tmp_path):
    cache = ExperimentCache(tmp_path)
    calls = [ARGS + ("dmdas", seed) for seed in range(4)]
    run_operation(*calls[1])  # no cache: reference value
    # Pre-populate one entry so the pool sees a hit/miss mixture.
    run_operation(*calls[2], cache=cache)
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
    spec = OperationSpec(op="potrf", n=1920 * 4, nb=1920, precision="double")
    cache = ExperimentCache(tmp_path / "cache")
    cold = run_chaos(PLATFORM, spec, CONFIG, STATES, plan, cache=cache)
    assert cold.baseline is not None and cache.misses == 1
    warm = run_chaos(PLATFORM, spec, CONFIG, STATES, plan, cache=cache)
    assert warm.baseline is None and cache.hits == 1
    assert warm.summary == cold.summary
    uncached = run_chaos(PLATFORM, spec, CONFIG, STATES, plan)
    assert uncached.summary == cold.summary
