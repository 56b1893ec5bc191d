"""Property-based tests for the DVFS power model and calibration."""

import pytest
from dvfs_oracle import efficiency_optimum
from hypothesis import given, settings, strategies as st

from repro.hardware.dvfs import (
    CalibrationError,
    PowerProfile,
    calibrate_profile,
    cpu_freq_at_cap,
)

profiles = st.builds(
    PowerProfile,
    s0=st.floats(5.0, 200.0),
    s1=st.floats(5.0, 250.0),
    d=st.floats(5.0, 250.0),
    gamma=st.floats(2.0, 24.0),
    beta=st.floats(0.6, 1.0),
    f_min=st.floats(0.05, 0.3),
)


@given(profiles, st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_power_monotone_in_frequency(prof, fa, fb):
    lo, hi = sorted((max(fa, prof.f_min), max(fb, prof.f_min)))
    if lo < hi:
        assert prof.power(lo) <= prof.power(hi)


@given(profiles, st.floats(10.0, 900.0), st.floats(0.1, 1.0))
def test_freq_at_cap_never_exceeds_cap_above_floor(prof, cap, activity):
    f = prof.freq_at_cap(cap, activity)
    assert prof.f_min <= f <= 1.0
    if prof.floor_power(activity) < cap:
        assert prof.power(f, activity) <= cap * (1 + 1e-6)


@given(profiles)
def test_perf_scale_bounds(prof):
    assert prof.perf_scale(1.0) == pytest.approx(1.0)
    assert 0.0 < prof.perf_scale(prof.f_min) <= 1.0


@given(profiles, st.floats(0.1, 1.0))
def test_efficiency_optimum_within_operating_range(prof, activity):
    f_opt, p_opt = efficiency_optimum(prof, activity)
    assert prof.f_min <= f_opt <= 1.0
    assert prof.power(prof.f_min, activity) <= p_opt <= prof.power(1.0, activity) + 1e-9


@settings(max_examples=40)
@given(
    p_max=st.floats(150.0, 500.0),
    star_frac=st.floats(0.45, 0.85),
    perf_ratio=st.floats(0.6, 0.93),
)
def test_calibration_hits_targets_when_feasible(p_max, star_frac, perf_ratio):
    p_star = p_max * star_frac
    try:
        prof = calibrate_profile(p_max, p_star, perf_ratio, cap_min=p_star * 0.5)
    except CalibrationError:
        return  # infeasible target combinations are allowed to fail loudly
    assert prof.max_power() == pytest.approx(p_max, rel=1e-6)
    _, p_opt = efficiency_optimum(prof)
    assert p_opt == pytest.approx(p_star, rel=0.02)


@given(
    cap=st.floats(0.0, 300.0),
    idle=st.floats(5.0, 60.0),
    tdp=st.floats(80.0, 280.0),
)
def test_cpu_freq_at_cap_bounded(cap, idle, tdp):
    if idle >= tdp:
        return
    f = cpu_freq_at_cap(cap, idle, tdp)
    assert 0.4 <= f <= 1.0
    # Monotone: a higher cap never lowers frequency.
    assert cpu_freq_at_cap(cap + 10.0, idle, tdp) >= f
