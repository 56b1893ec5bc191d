"""Unit tests for history/regression performance models."""

import pytest

from repro.kernels.tile_kernels import TileOp
from repro.runtime.perfmodel import HistoryModel, PerfModelSet, RegressionModel, model_key


def test_history_mean():
    m = HistoryModel()
    key = ("gemm", 512, "double")
    for t in (1.0, 2.0, 3.0):
        m.record(key, "cuda0", t)
    assert m.estimate(key, "cuda0") == pytest.approx(2.0)
    assert m.nsamples(key, "cuda0") == 3


def test_history_none_when_unseen():
    m = HistoryModel()
    assert m.estimate(("gemm", 512, "double"), "cuda0") is None
    assert m.nsamples(("gemm", 512, "double"), "cpu0") == 0


def test_history_arch_separation():
    m = HistoryModel()
    key = ("gemm", 512, "double")
    m.record(key, "cuda0", 1.0)
    m.record(key, "cpu0", 100.0)
    assert m.estimate(key, "cuda0") == 1.0
    assert m.estimate(key, "cpu0") == 100.0


def test_history_rejects_nonpositive():
    m = HistoryModel()
    with pytest.raises(ValueError):
        m.record(("gemm", 512, "double"), "cuda0", 0.0)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
def test_history_rejects_non_finite(duration):
    m = HistoryModel()
    with pytest.raises(ValueError, match="finite"):
        m.record(("gemm", 512, "double"), "cuda0", duration)
    assert m.nsamples(("gemm", 512, "double"), "cuda0") == 0


def test_regression_interpolates_power_law():
    m = HistoryModel()
    # t = 1e-9 * nb^3
    for nb in (128, 256, 512, 1024):
        m.record(("gemm", nb, "double"), "cuda0", 1e-9 * nb**3)
    r = RegressionModel(m)
    r.refit()
    est = r.estimate(("gemm", 768, "double"), "cuda0")
    assert est == pytest.approx(1e-9 * 768**3, rel=0.02)


def test_regression_needs_two_sizes():
    m = HistoryModel()
    m.record(("gemm", 128, "double"), "cuda0", 1.0)
    r = RegressionModel(m)
    r.refit()
    assert r.estimate(("gemm", 256, "double"), "cuda0") is None


def test_perfmodelset_fallback_chain():
    s = PerfModelSet()
    op = TileOp("gemm", 512, "double")
    # Nothing known: pessimistic default.
    assert s.estimate(op, "cuda0") == s.default_estimate_s
    # History wins once recorded.
    s.record(op, "cuda0", 0.005)
    assert s.estimate(op, "cuda0") == pytest.approx(0.005)
    # Regression covers unseen sizes.
    s.record(TileOp("gemm", 1024, "double"), "cuda0", 0.04)
    s.enable_regression()
    est = s.estimate(TileOp("gemm", 2048, "double"), "cuda0")
    assert 0.04 < est < 10.0


def test_perfmodelset_is_calibrated():
    s = PerfModelSet()
    op = TileOp("trsm", 256, "single")
    assert not s.is_calibrated(op, "cpu0")
    s.record(op, "cpu0", 0.1)
    assert s.is_calibrated(op, "cpu0")


def test_perfmodelset_clear():
    s = PerfModelSet()
    op = TileOp("gemm", 512, "double")
    s.record(op, "cuda0", 1.0)
    s.clear()
    assert not s.is_calibrated(op, "cuda0")


def test_model_key_roundtrip():
    op = TileOp("syrk", 384, "single")
    assert model_key(op) == ("syrk", 384, "single")
