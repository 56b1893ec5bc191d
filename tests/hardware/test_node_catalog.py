"""Unit tests for node assembly and the platform catalog."""

import pytest
from dvfs_oracle import efficiency_optimum

from repro.hardware.catalog import (
    PLATFORMS,
    build_platform,
    gpu_models,
    gpu_spec,
    platform_names,
)
from repro.hardware.node import MEM_HOST, Node
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def test_platform_names_match_paper():
    assert set(platform_names()) == {
        "24-Intel-2-V100",
        "64-AMD-2-A100",
        "32-AMD-4-A100",
    }


def test_unknown_platform_raises(sim):
    with pytest.raises(KeyError):
        build_platform("no-such-node", sim)


@pytest.mark.parametrize(
    "name,n_cpus,n_gpus,cores",
    [
        ("24-Intel-2-V100", 2, 2, 24),
        ("64-AMD-2-A100", 2, 2, 64),
        ("32-AMD-4-A100", 1, 4, 32),
    ],
)
def test_platform_composition(sim, name, n_cpus, n_gpus, cores):
    node = build_platform(name, sim)
    assert len(node.cpus) == n_cpus
    assert node.n_gpus == n_gpus
    assert node.total_cores == cores
    assert len(node.links) == n_gpus


def test_memory_node_mapping(sim):
    node = build_platform("32-AMD-4-A100", sim)
    assert node.n_mem_nodes == 5
    assert node.mem_node_of_gpu(2) == 3
    assert node.gpu_of_mem_node(3) is node.gpus[2]
    with pytest.raises(ValueError):
        node.gpu_of_mem_node(MEM_HOST)
    with pytest.raises(ValueError):
        node.gpu_of_mem_node(5)


def test_package_of_core(sim):
    node = build_platform("24-Intel-2-V100", sim)
    assert node.package_of_core(0) is node.cpus[0]
    assert node.package_of_core(11) is node.cpus[0]
    assert node.package_of_core(12) is node.cpus[1]
    with pytest.raises(ValueError):
        node.package_of_core(24)


def test_set_gpu_caps_applies_per_device(sim):
    node = build_platform("32-AMD-4-A100", sim)
    node.set_gpu_caps([400.0, 216.0, 216.0, 100.0])
    assert node.gpu_caps() == [400.0, 216.0, 216.0, 100.0]


def test_set_gpu_caps_length_mismatch(sim):
    node = build_platform("24-Intel-2-V100", sim)
    with pytest.raises(ValueError):
        node.set_gpu_caps([250.0])


def test_device_energies_keys(sim):
    node = build_platform("24-Intel-2-V100", sim)
    sim.schedule(1.0, lambda: None)
    sim.run()
    energies = node.device_energies_j()
    assert set(energies) == {"cpu0", "cpu1", "gpu0", "gpu1"}
    assert node.total_energy_j() == pytest.approx(sum(energies.values()))


def test_reset_energy_zeroes_all(sim):
    node = build_platform("64-AMD-2-A100", sim)
    sim.schedule(2.0, lambda: None)
    sim.run()
    node.reset_energy()
    assert node.total_energy_j() == 0.0


def test_node_requires_cpu(sim):
    with pytest.raises(ValueError):
        Node("x", sim, [], [], PLATFORMS["24-Intel-2-V100"].link)


# --------------------------------------------------- calibration vs Table I

TABLE1_BEST_CAP_FRACTION = {
    ("A100-SXM4-40GB", "double"): 0.54,
    ("A100-SXM4-40GB", "single"): 0.40,
    ("A100-PCIE-40GB", "double"): 0.78,
    ("A100-PCIE-40GB", "single"): 0.60,
    ("V100-PCIE-32GB", "double"): 0.60,
    ("V100-PCIE-32GB", "single"): 0.58,
}


@pytest.mark.parametrize("model", ["A100-SXM4-40GB", "A100-PCIE-40GB", "V100-PCIE-32GB"])
@pytest.mark.parametrize("precision", ["single", "double"])
def test_gpu_profiles_reproduce_table1_best_caps(model, precision):
    spec = gpu_spec(model)
    prof = spec.power_profiles[precision]
    _, p_opt = efficiency_optimum(prof)
    target = TABLE1_BEST_CAP_FRACTION[(model, precision)] * spec.tdp_w
    assert p_opt == pytest.approx(target, rel=0.02)


@pytest.mark.parametrize("model", ["A100-SXM4-40GB", "A100-PCIE-40GB", "V100-PCIE-32GB"])
def test_gpu_power_floor_enforceable(model):
    """The profile floor must allow operating near the hardware minimum cap."""
    spec = gpu_spec(model)
    for prof in spec.power_profiles.values():
        assert prof.floor_power() <= spec.cap_min_w * 1.05


def test_gpu_spec_cached():
    assert gpu_spec("V100-PCIE-32GB") is gpu_spec("V100-PCIE-32GB")


def test_unknown_gpu_model():
    with pytest.raises(KeyError):
        gpu_spec("H100-SXM5")  # the catalog entry is the full -80GB name


def test_all_models_listed():
    assert set(gpu_models()) == {
        "A100-SXM4-40GB",
        "A100-PCIE-40GB",
        "V100-PCIE-32GB",
        "H100-SXM5-80GB",
    }
