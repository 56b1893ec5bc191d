"""Tests for the H100-SXM5 catalog entry and the extended-platform lookup."""

import pytest
from dvfs_oracle import efficiency_optimum

from repro.hardware.catalog import (
    EXTENDED_PLATFORMS,
    PLATFORMS,
    build_platform,
    gpu_spec,
    platform_names,
    platform_spec,
)
from repro.sim import Simulator

MODEL = "H100-SXM5-80GB"


def test_h100_spec_basics():
    spec = gpu_spec(MODEL)
    assert spec.tdp_w == 700.0
    assert spec.cap_min_w == 200.0
    assert spec.cap_max_w == 700.0
    assert set(spec.power_profiles) == {"double", "single"}
    assert spec.peak_gflops["single"] > spec.peak_gflops["double"]


@pytest.mark.parametrize("precision", ["double", "single"])
def test_h100_power_floor_enforceable(precision):
    spec = gpu_spec(MODEL)
    prof = spec.power_profiles[precision]
    assert prof.floor_power() <= spec.cap_min_w * 1.05


def test_h100_best_cap_well_below_tdp():
    """The calibrated efficiency optimum sits near 430 W (~61% of TDP)."""
    spec = gpu_spec(MODEL)
    _, p_opt = efficiency_optimum(spec.power_profiles["double"])
    assert p_opt == pytest.approx(430.0, rel=0.02)
    assert p_opt / spec.tdp_w < 0.7


def test_extended_platform_resolves_but_stays_out_of_paper_set():
    spec = platform_spec("32-AMD-4-H100")
    assert spec is EXTENDED_PLATFORMS["32-AMD-4-H100"]
    assert spec.gpu_model == MODEL
    assert spec.n_gpus == 4
    # The paper's golden outputs iterate platform_names(); the hypothetical
    # node must not leak into them.
    assert "32-AMD-4-H100" not in platform_names()
    assert "32-AMD-4-H100" not in PLATFORMS


def test_platform_spec_falls_back_to_paper_catalog():
    assert platform_spec("24-Intel-2-V100") is PLATFORMS["24-Intel-2-V100"]
    with pytest.raises(KeyError):
        platform_spec("no-such-node")


def test_build_platform_assembles_h100_node():
    sim = Simulator()
    node = build_platform("32-AMD-4-H100", sim)
    assert node.n_gpus == 4
    assert node.total_cores == 32
    assert all(gpu.spec.model == MODEL for gpu in node.gpus)
