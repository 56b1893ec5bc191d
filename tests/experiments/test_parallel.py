"""The process-pool executor must be an exact drop-in for the serial loop."""

from __future__ import annotations

import pytest

from repro.core.capconfig import CapConfig
from repro.core.tradeoff import run_config_set, run_repeated
from repro.experiments import fig5_breakdown, fig6_cpucap
from repro.experiments.figs34 import _baseline
from repro.experiments.parallel import default_jobs, parallel_starmap
from repro.experiments.platforms import cap_states, config_list, operation_spec


def _mul(a, b):
    return a * b


def _boom(x):
    raise RuntimeError(f"boom {x}")


def test_serial_fallback_preserves_order():
    assert parallel_starmap(_mul, [(2, 3), (4, 5), (6, 7)], jobs=1) == [6, 20, 42]


def test_parallel_matches_serial_and_order():
    args = [(i, i + 1) for i in range(10)]
    assert parallel_starmap(_mul, args, jobs=3) == parallel_starmap(_mul, args, jobs=1)


def test_single_item_runs_in_process():
    # One call never pays pool startup, whatever jobs says.
    assert parallel_starmap(_mul, [(3, 3)], jobs=8) == [9]


def test_jobs_none_means_per_core():
    assert default_jobs() >= 1
    assert parallel_starmap(_mul, [(1, 2), (3, 4)], jobs=None) == [2, 12]


def test_exceptions_propagate():
    with pytest.raises(RuntimeError, match="boom"):
        parallel_starmap(_boom, [(1,), (2,)], jobs=2)


# --------------------------------------------------------- experiment plumbing

_PLATFORM = "24-Intel-2-V100"


def _fixture():
    spec = operation_spec(_PLATFORM, "potrf", "double", "tiny")
    states = cap_states(_PLATFORM, "potrf", "double", "tiny")
    return spec, states, config_list(_PLATFORM)


def test_run_config_set_jobs_bit_identical():
    spec, states, configs = _fixture()
    serial = run_config_set(_PLATFORM, spec, configs, states, jobs=1)
    pooled = run_config_set(_PLATFORM, spec, configs, states, jobs=4)
    assert serial == pooled


def test_run_repeated_jobs_bit_identical():
    spec, states, configs = _fixture()
    serial = run_repeated(_PLATFORM, spec, configs[0], states, repeats=3, jobs=1)
    pooled = run_repeated(_PLATFORM, spec, configs[0], states, repeats=3, jobs=3)
    assert serial == pooled


@pytest.mark.parametrize("driver", [fig5_breakdown, fig6_cpucap])
def test_fig5_fig6_take_jobs_bit_identically(driver):
    # `repro fig5/fig6 --jobs N` reaches the pool only if the driver takes
    # ``jobs``; the CLI drops the flag for drivers that do not.
    serial = driver.run(scale="tiny", jobs=1)
    pooled = driver.run(scale="tiny", jobs=2)
    assert pooled.rows == serial.rows


def test_missing_baseline_is_a_named_error():
    configs = [CapConfig("BB"), CapConfig("LL")]
    with pytest.raises(ValueError, match="'HH'.*potrf"):
        _baseline({"BB": object(), "LL": object()}, configs, "24-Intel-2-V100/potrf")
