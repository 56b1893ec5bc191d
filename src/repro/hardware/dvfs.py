"""DVFS power/performance model and its calibration.

The GPU draws, while running a kernel with *activity* ``a`` at normalised
boost frequency ``f`` (``f = 1`` is the maximum boost clock):

    P(f, a) = S0 + S1 * f + a * D * f**gamma

- ``S0`` — constant floor: leakage plus always-on uncore/HBM refresh power;
- ``S1 * f`` — clock-tree and memory-subsystem power that tracks the clock
  roughly linearly;
- ``a * D * f**gamma`` — switching power of the compute pipeline.  ``gamma``
  is large (6-16): near the top of the V/f curve, small clock increments cost
  a lot of power, which is exactly why NVIDIA boost clocks are power-starved
  at TDP.

Kernel throughput scales as ``f**beta`` with ``beta`` slightly below one
(memory and fixed-clock subsystems do not speed up with the SM clock), so the
energy efficiency ``f**beta / P(f)`` has a single interior maximum.  Power
capping moves the operating point along this curve: the device boosts to the
largest ``f`` whose power fits under the cap.

:func:`calibrate_profile` inverts the model: given three paper-reported
targets — the maximum draw at full boost, the cap wattage where efficiency
peaks, and the performance ratio observed at that cap — it solves the
(linear) system for ``(S0, S1, D)`` exactly.  This is how each GPU/precision
pair in :mod:`repro.hardware.catalog` is pinned to Table I/II of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class CalibrationError(ValueError):
    """Raised when no positive-coefficient profile satisfies the targets."""


@dataclass(frozen=True)
class PowerProfile:
    """Cap/power/performance model for one (device, precision) pair.

    Parameters
    ----------
    s0, s1, d:
        Watts: constant, linear-in-frequency and ``f**gamma`` coefficients.
    gamma:
        Exponent of the compute-pipeline switching term.
    beta:
        Exponent of the throughput-vs-frequency law (``perf ~ f**beta``).
    f_min:
        Lowest reachable normalised frequency (hardware floor).
    """

    s0: float
    s1: float
    d: float
    gamma: float
    beta: float
    f_min: float = 0.15

    def power(self, f: float, activity: float = 1.0) -> float:
        """Busy power draw (W) at normalised frequency ``f``."""
        if not 0.0 < f <= 1.0 + 1e-12:
            raise ValueError(f"normalised frequency out of range: {f}")
        return self.s0 + self.s1 * f + activity * self.d * f**self.gamma

    def perf_scale(self, f: float) -> float:
        """Throughput relative to full boost (``perf(f)/perf(1)``)."""
        return f**self.beta

    def floor_power(self, activity: float = 1.0) -> float:
        """Power at the frequency floor — the lowest enforceable draw."""
        return self.power(self.f_min, activity)

    def max_power(self, activity: float = 1.0) -> float:
        """Draw at full boost for this activity."""
        return self.power(1.0, activity)

    def freq_at_cap(self, cap_w: float, activity: float = 1.0) -> float:
        """Largest ``f`` in ``[f_min, 1]`` with ``power(f) <= cap_w``.

        When even the floor exceeds the cap the device pegs at ``f_min`` (a
        real GPU cannot operate below its minimum V/f point; NVML refuses
        caps below the minimum constraint, so this only happens for
        low-activity kernels whose floor sits above an aggressive cap).
        """
        if self.floor_power(activity) >= cap_w:
            return self.f_min
        if self.max_power(activity) <= cap_w:
            return 1.0
        lo, hi = self.f_min, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.power(mid, activity) <= cap_w:
                lo = mid
            else:
                hi = mid
        return lo

    def with_floor(self, f_min: float) -> "PowerProfile":
        return replace(self, f_min=f_min)


def solve_coefficients(
    p_max: float,
    p_star: float,
    perf_ratio: float,
    gamma: float,
    beta: float,
) -> tuple[float, float, float]:
    """Solve ``(S0, S1, D)`` so that the profile hits the three targets.

    Targets (all at activity 1):

    - full-boost draw ``P(1) = p_max``;
    - the efficiency optimum sits at frequency ``f* = perf_ratio**(1/beta)``
      (i.e. running at the best cap costs ``1 - perf_ratio`` of throughput);
    - power at the optimum equals the best cap: ``P(f*) = p_star``.

    Stationarity of ``f**beta / P(f)`` gives ``beta * P(f*) = f* P'(f*)``,
    which together with the two power constraints is linear in (S0, S1, D).
    """
    fs = perf_ratio ** (1.0 / beta)
    if not 0.0 < fs < 1.0:
        raise CalibrationError(f"perf ratio {perf_ratio} gives invalid f*={fs}")
    fg = fs**gamma
    # beta * p_star = fs * S1 + gamma * D * fg
    # S0 + fs * S1 + fg * D = p_star
    # S0 + S1 + D = p_max
    #
    # From the first:  S1 = (beta * p_star - gamma * fg * D) / fs
    # Substitute into the second: S0 = p_star - beta * p_star + (gamma - 1) * fg * D
    # Substitute both into the third and solve for D.
    c_s1_d = -gamma * fg / fs
    c_s1_0 = beta * p_star / fs
    c_s0_d = (gamma - 1.0) * fg
    c_s0_0 = p_star * (1.0 - beta)
    denom = c_s0_d + c_s1_d + 1.0
    if abs(denom) < 1e-12:
        raise CalibrationError("degenerate target system")
    d = (p_max - c_s0_0 - c_s1_0) / denom
    s1 = c_s1_0 + c_s1_d * d
    s0 = c_s0_0 + c_s0_d * d
    return s0, s1, d


def calibrate_profile(
    p_max: float,
    p_star: float,
    perf_ratio: float,
    beta: float = 0.85,
    f_min: float = 0.15,
    cap_min: float | None = None,
    low_anchor: tuple[float, float] | None = None,
    gammas: tuple[float, ...] = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 20.0, 24.0, 28.0),
) -> PowerProfile:
    """Find a positive-coefficient :class:`PowerProfile` hitting the targets.

    Scans the ``gamma`` candidates and keeps the profile whose power floor is
    closest to (and preferably below) ``cap_min``, so the hardware's minimum
    cap remains enforceable.  ``low_anchor=(cap_w, perf_ratio)`` optionally
    pins a second operating point deep in the curve (e.g. the paper's
    observed slowdown at the minimum cap), steering the gamma choice.
    """
    candidates: list[tuple[float, PowerProfile]] = []
    for gamma in gammas:
        try:
            s0, s1, d = solve_coefficients(p_max, p_star, perf_ratio, gamma, beta)
        except CalibrationError:
            continue
        if s0 <= 0 or s1 <= 0 or d <= 0:
            continue
        prof = PowerProfile(s0=s0, s1=s1, d=d, gamma=gamma, beta=beta, f_min=f_min)
        penalty = 0.0
        if cap_min is not None:
            floor = prof.floor_power()
            # Prefer floors at or below the hardware minimum cap; penalise
            # overshoot heavily, undershoot mildly.
            penalty += max(0.0, floor - cap_min) * 10.0 + max(0.0, cap_min - floor)
        if low_anchor is not None:
            cap_low, pr_low = low_anchor
            achieved = prof.perf_scale(prof.freq_at_cap(cap_low))
            penalty += 400.0 * abs(achieved - pr_low)
        candidates.append((penalty, prof))
    if not candidates:
        raise CalibrationError(
            f"no feasible profile for p_max={p_max} p_star={p_star} perf_ratio={perf_ratio}"
        )
    candidates.sort(key=lambda t: t[0])
    return candidates[0][1]


def cpu_freq_at_cap(cap_w: float, idle_w: float, tdp_w: float, f_min: float = 0.4) -> float:
    """Normalised all-core frequency of a CPU package under a RAPL cap.

    Package power is modelled as ``idle + (tdp - idle) * f**3`` with all cores
    busy; the governor picks the largest feasible ``f``.
    """
    if cap_w >= tdp_w:
        return 1.0
    if cap_w <= idle_w:
        return f_min
    f = ((cap_w - idle_w) / (tdp_w - idle_w)) ** (1.0 / 3.0)
    return min(1.0, max(f_min, f))
