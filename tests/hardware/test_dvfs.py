"""Unit tests for the DVFS power model and its calibration."""

import math

import pytest
from dvfs_oracle import efficiency_optimum

from repro.hardware.dvfs import (
    CalibrationError,
    calibrate_profile,
    cpu_freq_at_cap,
    solve_coefficients,
)


@pytest.fixture
def prof():
    return calibrate_profile(p_max=360.0, p_star=216.0, perf_ratio=0.7707, cap_min=100.0)


def test_power_monotone_in_frequency(prof):
    fs = [0.15 + 0.05 * i for i in range(17)] + [1.0]
    ps = [prof.power(f) for f in fs]
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_power_increases_with_activity(prof):
    assert prof.power(0.8, 1.0) > prof.power(0.8, 0.5)


def test_power_rejects_out_of_range_frequency(prof):
    with pytest.raises(ValueError):
        prof.power(0.0)
    with pytest.raises(ValueError):
        prof.power(1.5)


def test_perf_scale_endpoints(prof):
    assert prof.perf_scale(1.0) == 1.0
    assert 0.0 < prof.perf_scale(prof.f_min) < 1.0


def test_freq_at_cap_roundtrip(prof):
    """Solving the cap then evaluating power must land on the cap."""
    for cap in (150.0, 216.0, 300.0):
        f = prof.freq_at_cap(cap)
        assert prof.power(f) == pytest.approx(cap, rel=1e-6)


def test_freq_at_cap_saturates_at_max(prof):
    assert prof.freq_at_cap(prof.max_power() + 50.0) == 1.0


def test_freq_at_cap_pegs_at_floor(prof):
    f = prof.freq_at_cap(prof.floor_power() - 10.0)
    assert f == prof.f_min


def test_calibration_hits_max_draw(prof):
    assert prof.max_power() == pytest.approx(360.0, rel=1e-9)


def test_calibration_optimum_at_best_cap(prof):
    f_opt, p_opt = efficiency_optimum(prof)
    assert p_opt == pytest.approx(216.0, rel=0.01)
    assert prof.perf_scale(f_opt) == pytest.approx(0.7707, rel=0.01)


def test_calibration_positive_coefficients(prof):
    assert prof.s0 > 0 and prof.s1 > 0 and prof.d > 0


def test_best_cap_grid_search_matches_optimum(prof):
    """Searching caps (not frequencies) for the best perf/power finds the
    calibrated best cap too."""
    def efficiency(cap):
        f = prof.freq_at_cap(cap)
        return prof.perf_scale(f) / prof.power(f)

    best = max((100.0 + 0.5 * i for i in range(521)), key=efficiency)
    assert best == pytest.approx(216.0, abs=2.0)


def test_solve_coefficients_satisfy_system():
    p_max, p_star, pr, gamma, beta = 300.0, 180.0, 0.75, 8.0, 0.85
    s0, s1, d = solve_coefficients(p_max, p_star, pr, gamma, beta)
    fs = pr ** (1.0 / beta)
    assert s0 + s1 + d == pytest.approx(p_max)
    assert s0 + s1 * fs + d * fs**gamma == pytest.approx(p_star)
    # stationarity: beta * P(f*) = f* P'(f*)
    pprime = s1 + gamma * d * fs ** (gamma - 1.0)
    assert beta * p_star == pytest.approx(fs * pprime)


def test_solve_coefficients_rejects_bad_perf_ratio():
    with pytest.raises(CalibrationError):
        solve_coefficients(300.0, 200.0, 1.2, 8.0, 0.85)


def test_calibrate_rejects_infeasible_targets():
    # best cap above max draw cannot be an interior optimum
    with pytest.raises(CalibrationError):
        calibrate_profile(p_max=200.0, p_star=500.0, perf_ratio=0.9)


def test_efficiency_unimodal(prof):
    """Efficiency rises to the optimum then falls — single interior peak."""
    caps = [prof.floor_power() + i for i in range(0, int(360 - prof.floor_power()), 2)]
    effs = []
    for cap in caps:
        f = prof.freq_at_cap(cap)
        effs.append(prof.perf_scale(f) / prof.power(f))
    peak = effs.index(max(effs))
    assert all(effs[i] <= effs[i + 1] + 1e-12 for i in range(peak))
    assert all(effs[i] >= effs[i + 1] - 1e-12 for i in range(peak, len(effs) - 1))


def test_cpu_freq_at_cap_boundaries():
    assert cpu_freq_at_cap(125.0, 20.0, 125.0) == 1.0
    assert cpu_freq_at_cap(200.0, 20.0, 125.0) == 1.0
    assert cpu_freq_at_cap(10.0, 20.0, 125.0) == 0.4  # below idle -> floor


def test_cpu_freq_at_cap_midpoint():
    f = cpu_freq_at_cap(60.0, 20.0, 125.0)
    assert f == pytest.approx(((60 - 20) / 105) ** (1 / 3))


def test_with_floor_returns_new_profile(prof):
    p2 = prof.with_floor(0.3)
    assert p2.f_min == 0.3 and prof.f_min != 0.3


def test_efficiency_curve_shape_matches_points(prof):
    rows = [(f, prof.perf_scale(f), prof.power(f))
            for f in map(prof.freq_at_cap, [150.0, 360.0])]
    (f1, s1_, p1), (f2, s2_, p2) = rows
    assert f1 < f2 and s1_ < s2_ and p1 < p2
    assert math.isclose(p2, 360.0, rel_tol=1e-6)
