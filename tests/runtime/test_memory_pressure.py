"""Out-of-core execution: matrices larger than GPU memory.

The paper's POTRF instance (172800^2 doubles = 119 GB lower-stored) does not
fit a 40 GB A100; the runtime must stream tiles with LRU eviction and dirty
write-backs while still computing the right DAG.  These tests shrink GPU
memory instead of growing the matrix.
"""

from dataclasses import replace

from coherence_oracle import check_invariants

from repro.hardware.catalog import PCIE4_X16, XEON_GOLD_6126, gpu_spec
from repro.hardware.node import Node
from repro.linalg import assign_priorities, potrf_graph
from repro.runtime import RuntimeSystem
from repro.runtime.graph import TaskState
from repro.sim import Simulator


def _tiny_memory_node(mem_gb: float):
    sim = Simulator()
    small_gpu = replace(gpu_spec("A100-SXM4-40GB"), memory_gb=mem_gb)
    node = Node(
        "tiny-mem",
        sim,
        cpu_specs=[XEON_GOLD_6126],
        gpu_specs=[small_gpu, small_gpu],
        link_spec=PCIE4_X16,
    )
    return node


def test_potrf_larger_than_gpu_memory_completes():
    # Matrix: 10x10 tiles of 720^2 doubles (lower ~ 228 MB); GPU memory 0.1 GB.
    node = _tiny_memory_node(0.1)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1)
    graph, _ = potrf_graph(720 * 10, 720, "double")
    assign_priorities(graph)
    res = rt.run(graph)
    assert all(t.state is TaskState.DONE for t in graph.tasks)
    assert res.n_evictions > 0, "working set exceeds device memory: must evict"


def test_eviction_costs_extra_transfers():
    def run(mem_gb):
        node = _tiny_memory_node(mem_gb)
        rt = RuntimeSystem(node, scheduler="dmdas", seed=1)
        graph, _ = potrf_graph(720 * 10, 720, "double")
        assign_priorities(graph)
        return rt.run(graph)

    roomy = run(4.0)
    tight = run(0.08)
    assert tight.n_evictions > roomy.n_evictions
    assert tight.bytes_transferred > roomy.bytes_transferred


def test_dirty_tiles_survive_eviction_roundtrip():
    """After an out-of-core run, flushed results must all be host-valid."""
    node = _tiny_memory_node(0.1)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1)
    graph, a = potrf_graph(720 * 8, 720, "double")
    assign_priorities(graph)
    rt.run(graph)
    for handle in graph.handles:
        check_invariants(handle)
        assert 0 in handle.valid_nodes
        assert handle.owner is None
