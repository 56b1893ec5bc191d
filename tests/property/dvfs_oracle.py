"""Test-only oracle: the closed-form efficiency optimum of a power profile.

The product finds best caps from sweeps (``repro.core.sweep``); this
ternary search on the continuous curve ``perf_scale(f) / power(f)`` checks
that each calibrated catalog profile peaks where the paper says.
"""

from __future__ import annotations

from repro.hardware.dvfs import PowerProfile


def efficiency_optimum(profile: PowerProfile, activity: float = 1.0) -> tuple[float, float]:
    """Return ``(f*, P(f*))`` of the continuous efficiency optimum."""
    lo, hi = profile.f_min, 1.0
    # Ternary search on the unimodal efficiency curve.
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        e1 = profile.perf_scale(m1) / profile.power(m1, activity)
        e2 = profile.perf_scale(m2) / profile.power(m2, activity)
        if e1 < e2:
            lo = m1
        else:
            hi = m2
    f = 0.5 * (lo + hi)
    return f, profile.power(f, activity)
