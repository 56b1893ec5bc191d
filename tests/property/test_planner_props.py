"""Property test: the analytic sweep replay equals the simulated sweep.

The replay equals the discrete-event sweep point-for-point for arbitrary
(model, size, step) combinations, including steps whose percentage grid is
not exactly representable in binary.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sweep import simulated_sweep_gemm, sweep_gemm


@settings(max_examples=6, deadline=None)
@given(
    model=st.sampled_from(
        ["V100-PCIE-32GB", "A100-SXM4-40GB", "A100-PCIE-40GB", "H100-SXM5-80GB"]
    ),
    n=st.sampled_from([512, 1024, 3072]),
    precision=st.sampled_from(["double", "single"]),
    step=st.sampled_from([2.0, 3.7, 7.3, 10.0, 12.5]),
)
def test_analytic_sweep_equals_simulated_sweep(model, n, precision, step):
    assert sweep_gemm(model, n, precision, step_pct=step) == simulated_sweep_gemm(
        model, n, precision, step_pct=step
    )
