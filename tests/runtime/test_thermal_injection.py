"""Thermal throttling during task-based runs, injected as ``gpu-throttle``
faults through ``build_run``."""

import pytest

from repro.core.capconfig import CapConfig, CapStates
from repro.core.runs import RunSpec, build_run
from repro.core.tradeoff import OperationSpec
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hardware.catalog import gpu_spec

PLATFORM = "32-AMD-4-A100"
SPEC = OperationSpec("gemm", 5760 * 9, 5760, "double")
_GPU = gpu_spec("A100-SXM4-40GB")
STATES = CapStates(h_w=_GPU.cap_max_w, b_w=_GPU.cap_max_w, l_w=_GPU.cap_min_w)

#: Every GPU throttled to half its cap once, staggered over the first half
#: of the run (fractions of the clean makespan), so each window closes
#: before the last task does.
THROTTLES = FaultPlan(
    faults=tuple(
        FaultSpec("gpu-throttle", 0.1 + 0.1 * i, f"gpu{i}", duration=0.15,
                  magnitude=0.5)
        for i in range(4)
    ),
    relative=True,
    name="throttle",
)


def _run(plan=None, seed=2, probe_at=None):
    run = build_run(RunSpec(PLATFORM, SPEC, CapConfig("HHHH"), STATES,
                            seed=seed, ewma_alpha=0.4, plan=plan))
    seen: list[float] = []
    if probe_at is not None:
        gpus = run.runtime.node.gpus
        run.runtime.sim.schedule_at(
            probe_at, lambda: seen.extend(g.enforced_limit_w for g in gpus)
        )
    run.execute([SPEC])
    return run, seen


@pytest.fixture(scope="module")
def clean():
    run, _ = _run()
    return run


@pytest.fixture(scope="module")
def hot(clean):
    run, _ = _run(THROTTLES.resolve(clean.results[0].makespan_s))
    return run


def _kinds(run):
    return [e["kind"] for e in run.injector.events]


def test_run_completes_under_throttling(hot):
    assert _kinds(hot).count("gpu-throttle") == 4, "injection should have fired"
    assert hot.all_tasks_done()
    assert hot.executed_exactly_once()
    assert hot.results[0].n_tasks == len(hot.graphs[0].tasks)


def test_throttling_costs_performance(clean, hot):
    assert hot.results[0].makespan_s > clean.results[0].makespan_s


def test_caps_restored_after_run(hot):
    assert _kinds(hot).count("gpu-throttle-clear") == 4
    for gpu in hot.runtime.node.gpus:
        assert not gpu.throttled
        assert gpu.enforced_limit_w == gpu.power_limit_w == gpu.spec.cap_max_w


def test_throttle_limits_within_constraints(clean):
    """A throttle never drops a device below its minimum cap, and never
    touches the configured (NVML-reported) cap."""
    makespan = clean.results[0].makespan_s
    plan = FaultPlan(
        faults=(
            FaultSpec("gpu-throttle", 0.2, "gpu0", duration=0.2, magnitude=0.05),
            FaultSpec("gpu-throttle", 0.2, "gpu1", duration=0.2, magnitude=0.5),
        ),
        relative=True,
    ).resolve(makespan)
    run, seen = _run(plan, probe_at=0.3 * makespan)
    cap_min, cap_max = _GPU.cap_min_w, _GPU.cap_max_w
    assert seen == [cap_min, 0.5 * cap_max, cap_max, cap_max]
    assert all(g.power_limit_w == cap_max for g in run.runtime.node.gpus)


def test_injection_deterministic_per_seed(clean):
    plan = THROTTLES.resolve(clean.results[0].makespan_s)
    (a, _), (b, _) = _run(plan, seed=5), _run(plan, seed=5)
    assert a.injector.events == b.injector.events
    assert a.results[0].makespan_s == b.results[0].makespan_s
