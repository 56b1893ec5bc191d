"""Paper-scale smoke runs (opt-in: set REPRO_SLOW=1).

Replays the paper's full Table II instances through the runtime; ~30 s of
wall time, so excluded from the default suite.
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.core.capconfig import CapConfig
from repro.core.tradeoff import run_operation
from repro.experiments.platforms import cap_states, operation_spec
from repro.hardware.catalog import build_platform
from repro.linalg import assign_priorities, gemm_graph, potrf_graph
from repro.runtime import RuntimeSystem
from repro.sim import Simulator

slow = pytest.mark.skipif(
    os.environ.get("REPRO_SLOW") != "1", reason="set REPRO_SLOW=1 for paper-scale runs"
)


@slow
def test_paper_scale_gemm_74880():
    sim = Simulator()
    node = build_platform("32-AMD-4-A100", sim)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=0)
    graph, *_ = gemm_graph(74880, 5760, "double")
    assign_priorities(graph)
    res = rt.run(graph)
    assert res.n_tasks == 13**3
    assert 30.0 < res.gflops_per_watt < 55.0  # paper HHHH: ~41


@slow
def test_paper_scale_potrf_172800():
    sim = Simulator()
    node = build_platform("32-AMD-4-A100", sim)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=0)
    graph, _ = potrf_graph(172800, 2880, "double")
    assign_priorities(graph)
    res = rt.run(graph)
    assert res.n_tasks == 37820
    assert res.n_evictions > 0  # 119 GB lower-stored matrix over 40 GB devices
    assert 25.0 < res.gflops_per_watt < 50.0  # paper HHHH: ~38


GOLDEN_PAPER = Path(__file__).resolve().parents[1] / "data" / "golden_potrf_paper_metrics.json"


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    return value


@slow
@pytest.mark.parametrize("config", ["HHHH", "HHBB", "BBBB"])
def test_paper_scale_potrf_metrics_match_golden(config):
    """Paper-scale double POTRF on 32-AMD-4-A100 (37,820 tasks, ~17 k
    evictions), dmdas, seed 0: every ConfigMetrics float is bit-identical
    to the recorded one (floats stored as ``float.hex``)."""
    platform = "32-AMD-4-A100"
    spec = operation_spec(platform, "potrf", "double", "paper")
    states = cap_states(platform, "potrf", "double", "paper")
    metrics = run_operation(platform, spec, CapConfig(config), states,
                            scheduler="dmdas", seed=0)
    golden = json.loads(GOLDEN_PAPER.read_text())
    assert _hexed(dataclasses.asdict(metrics)) == golden[config]
