"""The optimized placement path must be bit-identical to brute force.

The dm-family schedulers collapse interchangeable workers into
(arch, mem_node) equivalence classes and evaluate the expensive placement
terms once per class.  ``DMScheduler.brute_force_placement`` re-enables the
original per-worker evaluation; every scheduler, on both a 2-GPU and a
4-GPU platform, must produce the exact same run either way.
"""

from __future__ import annotations

import pytest

from repro.experiments.platforms import operation_spec
from repro.hardware.catalog import build_platform
from repro.obs.decisions import DecisionLog
from repro.runtime import RuntimeSystem
from repro.runtime.schedulers import SCHEDULERS
from repro.runtime.schedulers.dm import DMScheduler
from repro.sim import Simulator

PLATFORMS = ["24-Intel-2-V100", "32-AMD-4-A100"]


def _run(platform: str, scheduler: str):
    sim = Simulator()
    node = build_platform(platform, sim)
    runtime = RuntimeSystem(node, scheduler=scheduler, seed=0)
    spec = operation_spec(platform, "potrf", "double", "tiny")
    return runtime.run(spec.build_graph())


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_fast_placement_matches_brute_force(monkeypatch, platform, name):
    fast = _run(platform, name)
    monkeypatch.setattr(DMScheduler, "brute_force_placement", True)
    brute = _run(platform, name)
    assert fast.makespan_s == brute.makespan_s
    assert fast.energies_j == brute.energies_j
    assert fast.worker_tasks == brute.worker_tasks
    assert fast.bytes_transferred == brute.bytes_transferred


@pytest.mark.parametrize("platform", PLATFORMS)
def test_placement_evals_bounded_by_classes(platform):
    """At most one expensive evaluation per (task, equivalence class)."""
    result = _run(platform, "dmdas")
    node = build_platform(platform, Simulator())
    n_classes = node.n_gpus + len(node.cpus)  # each GPU and package is a class
    assert 0 < result.n_placement_evals <= n_classes * result.n_tasks


def test_brute_force_counts_per_worker(monkeypatch):
    """Sanity: the flag really switches to per-worker evaluation."""
    monkeypatch.setattr(DMScheduler, "brute_force_placement", True)
    brute = _run("24-Intel-2-V100", "dm")
    monkeypatch.undo()
    fast = _run("24-Intel-2-V100", "dm")
    # 24-Intel-2-V100 has 24 CPU workers + 2 GPU workers but only 4 classes,
    # so brute force must evaluate strictly more placements.
    assert brute.n_placement_evals > fast.n_placement_evals


# ------------------------------------------------- unlogged fast path pinned

#: The dm-family policies (the class scan's inline terms cover dm and the
#: dmda variants; dmdae's energy term goes through its override).
DM_FAMILY = ["dm", "dmda", "dmdas", "dmdar", "dmdae"]
PAPER_PLATFORMS = ["24-Intel-2-V100", "64-AMD-2-A100", "32-AMD-4-A100"]


def _schedule(platform: str, scheduler: str, scale: str, logged: bool) -> dict:
    sim = Simulator()
    node = build_platform(platform, sim)
    log = DecisionLog() if logged else None
    runtime = RuntimeSystem(node, scheduler=scheduler, seed=0, decision_log=log)
    graph = operation_spec(platform, "potrf", "double", scale).build_graph()
    result = runtime.run(graph)
    if logged:
        assert len(log.records) == result.n_tasks
    return {
        "tasks": [(t.worker_name, t.start_time, t.end_time) for t in graph.tasks],
        "makespan_s": result.makespan_s,
        "n_placement_evals": result.n_placement_evals,
        "perf_cache": (runtime.perf.n_cache_hits, runtime.perf.n_cache_misses),
    }


def _assert_same_placements(monkeypatch, platform, name, scale):
    unlogged = _schedule(platform, name, scale, logged=False)
    logged = _schedule(platform, name, scale, logged=True)
    # Both scans skip the fold of the classes their floor rules out; a
    # logged one also logs every class's terms and the backlogs, and the
    # log folds the member costs when it is read.  Both must make the same
    # placements and count the same evaluations and perf-model cache hits.
    assert unlogged == logged
    monkeypatch.setattr(DMScheduler, "brute_force_placement", True)
    brute = _schedule(platform, name, scale, logged=False)
    # Brute force evaluates (and estimates) per worker, not per class, so
    # only its evaluation counters differ by design.
    assert brute["tasks"] == unlogged["tasks"]
    assert brute["makespan_s"] == unlogged["makespan_s"]


@pytest.mark.parametrize("platform", PAPER_PLATFORMS)
@pytest.mark.parametrize("name", DM_FAMILY)
def test_unlogged_logged_and_brute_force_place_identically(monkeypatch, platform, name):
    _assert_same_placements(monkeypatch, platform, name, "tiny")


@pytest.mark.parametrize("platform", PAPER_PLATFORMS)
@pytest.mark.parametrize("name", ["dmdas", "dmdae"])
def test_unlogged_fast_path_pinned_at_small_scale(monkeypatch, platform, name):
    _assert_same_placements(monkeypatch, platform, name, "small")
