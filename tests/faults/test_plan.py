"""Tests for fault plans: validation, serialisation, presets."""

import pytest

from repro.faults.plan import (
    FAULT_KINDS,
    PRESET_NAMES,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    preset_plan,
    random_plan,
)


def test_every_kind_is_constructible():
    for kind in FAULT_KINDS:
        spec = FaultSpec(
            kind=kind, time=0.5, target="gpu-w0" if "worker" in kind else "gpu0",
            duration=0.1, magnitude=0.5 if kind != "cap-set-error" else 2,
        )
        assert spec.kind == kind


def test_unknown_kind_rejected():
    with pytest.raises(FaultPlanError, match="unknown fault kind"):
        FaultSpec(kind="disk-on-fire", time=0.0)


def test_negative_time_rejected():
    with pytest.raises(FaultPlanError):
        FaultSpec(kind="gpu-throttle", time=-1.0, target="gpu0",
                  duration=0.1, magnitude=0.5)


def test_clamp_magnitude_must_be_fraction():
    with pytest.raises(FaultPlanError, match="magnitude"):
        FaultSpec(kind="cap-silent-clamp", time=0.0, target="gpu0",
                  duration=1.0, magnitude=1.5)
    with pytest.raises(FaultPlanError, match="magnitude"):
        FaultSpec(kind="gpu-throttle", time=0.0, target="gpu0",
                  duration=1.0, magnitude=0.0)


def test_worker_fault_needs_target():
    with pytest.raises(FaultPlanError, match="target"):
        FaultSpec(kind="worker-kill", time=0.1)


def test_duration_required_where_meaningful():
    with pytest.raises(FaultPlanError, match="duration"):
        FaultSpec(kind="gpu-throttle", time=0.1, target="gpu0",
                  duration=0.0, magnitude=0.5)


def test_json_roundtrip(tmp_path):
    plan = preset_plan("kill-throttle", seed=7)
    path = tmp_path / "plan.json"
    plan.save(str(path))
    loaded = FaultPlan.load(str(path))
    assert loaded == plan
    assert loaded.seed == 7


def test_presets_enumerate_and_build():
    for name in PRESET_NAMES:
        plan = preset_plan(name)
        assert plan.name == name
        if name != "none":
            assert len(plan) > 0
    with pytest.raises(FaultPlanError, match="unknown preset"):
        preset_plan("meteor-strike")


def test_resolve_scales_relative_times():
    plan = FaultPlan(
        faults=(FaultSpec(kind="gpu-throttle", time=0.5, target="gpu0",
                          duration=0.2, magnitude=0.5),),
        relative=True,
    )
    resolved = plan.resolve(10.0)
    assert not resolved.relative
    assert resolved.faults[0].time == pytest.approx(5.0)
    assert resolved.faults[0].duration == pytest.approx(2.0)
    # Absolute plans pass through unchanged.
    assert resolved.resolve(99.0) is resolved


def test_dropout_windows_come_from_meter_faults():
    plan = FaultPlan(faults=(
        FaultSpec(kind="meter-dropout", time=1.0, duration=0.5),
        FaultSpec(kind="transfer-stall", time=2.0, target="gpu0", duration=0.1),
    ))
    assert plan.dropout_windows() == [(1.0, 1.5)]


def test_random_plan_is_seed_deterministic():
    a = random_plan(seed=3, n_faults=6)
    b = random_plan(seed=3, n_faults=6)
    c = random_plan(seed=4, n_faults=6)
    assert a == b
    assert a != c
    assert len(a) == 6
    for spec in a.faults:
        assert spec.kind in FAULT_KINDS


_KILL = '{"kind": "worker-kill", "target": "gpu-w0", "time": 0.1}'


@pytest.mark.parametrize("text, field", [
    ("{not json", "not valid JSON"),
    ("[1, 2]", "must be a JSON object"),
    ('"kill"', "must be a JSON object"),
    ('{"faults": {"kind": "worker-kill"}}', "'faults' must be a list"),
    ('{"faults": [3]}', r"faults\[0\]: a fault must be a JSON object"),
    ('{"faults": [{"time": 0.1}]}', r"faults\[0\]: missing required field 'kind'"),
    ('{"faults": [{"kind": "worker-kill", "target": "gpu-w0"}]}',
     r"faults\[0\]: missing required field 'time'"),
    ('{"faults": [%s, {"kind": "worker-hang", "target": "gpu-w1", '
     '"time": "soon", "duration": 0.1}]}' % _KILL,
     r"faults\[1\]: field 'time' must be a number"),
    ('{"faults": [{"kind": "meter-dropout", "time": 0.1, "duration": [1]}]}',
     "field 'duration' must be a number"),
    ('{"faults": [{"kind": "gpu-throttle", "target": "gpu0", "time": 0.1, '
     '"duration": 0.1, "magnitude": null}]}', "field 'magnitude' must be a number"),
    ('{"faults": [{"kind": "worker-kill", "target": "gpu-w0", "time": NaN}]}',
     "time must be finite"),
    ('{"faults": [{"kind": "meter-dropout", "time": 0.1, "duration": Infinity}]}',
     "duration must be finite"),
    ('{"faults": [{"kind": "gpu-throttle", "target": "gpu0", "time": 0.1, '
     '"duration": 0.1, "magnitude": -Infinity}]}', "magnitude must be finite"),
    ('{"seed": "abc", "faults": []}', "field 'seed' must be an integer"),
    ("[" * 100_000, "not valid JSON"),
])
def test_malformed_plan_json_raises_fault_plan_error(text, field):
    with pytest.raises(FaultPlanError, match=field):
        FaultPlan.from_json(text)
