"""Unit tests for the GEMM/POTRF DAG builders (structure + paper formulas)."""

import pytest

from repro.linalg import (
    TileMatrix,
    assign_priorities,
    build_gemm,
    build_potrf,
    gemm_graph,
    potrf_graph,
    potrf_task_counts,
)
from repro.runtime.graph import TaskGraph


def test_gemm_task_count_is_nt_cubed():
    g, *_ = gemm_graph(256 * 5, 256, "double")
    assert len(g) == 125
    assert g.counts_by_kind() == {"gemm": 125}


def test_gemm_accumulation_chains():
    """Each C tile's k-updates must serialise; distinct C tiles are parallel."""
    g, *_ = gemm_graph(128 * 3, 128, "double")
    assert len(g.roots()) == 9  # one root per C tile (k = 0)
    length, _ = g.critical_path()
    assert length == 3  # the k chain


def test_gemm_geometry_mismatch_rejected():
    a = TileMatrix(512, 256, "double")
    b = TileMatrix(512, 128, "double")
    c = TileMatrix(512, 256, "double")
    with pytest.raises(ValueError):
        build_gemm(TaskGraph(), a, b, c)


def test_gemm_precision_mismatch_rejected():
    a = TileMatrix(512, 256, "double")
    b = TileMatrix(512, 256, "single")
    c = TileMatrix(512, 256, "double")
    with pytest.raises(ValueError):
        build_gemm(TaskGraph(), a, b, c)


@pytest.mark.parametrize("nt", [1, 2, 3, 5, 8, 13])
def test_potrf_task_counts_match_paper_formula(nt):
    """Paper: N(N+1)(N+2)/6 vertices for an N x N tile matrix."""
    g, _ = potrf_graph(64 * nt, 64, "double")
    expected = potrf_task_counts(nt)
    counts = g.counts_by_kind()
    assert len(g) == expected["total"] == nt * (nt + 1) * (nt + 2) // 6
    assert counts.get("potrf", 0) == expected["potrf"]
    assert counts.get("trsm", 0) == expected["trsm"]
    assert counts.get("syrk", 0) == expected["syrk"]
    assert counts.get("gemm", 0) == expected["gemm"]


def test_potrf_single_root_is_first_panel():
    g, _ = potrf_graph(64 * 6, 64, "double")
    roots = g.roots()
    assert len(roots) == 1 and roots[0].op.kind == "potrf"


def test_potrf_requires_symmetric_matrix():
    a = TileMatrix(256, 64, "double")
    with pytest.raises(ValueError):
        build_potrf(TaskGraph(), a)


def test_potrf_critical_path_alternates_panel_ops():
    """The critical path is potrf -> trsm -> (syrk|gemm) -> potrf ..."""
    g, _ = potrf_graph(64 * 5, 64, "double")
    _, path = g.critical_path()
    kinds = [t.op.kind for t in path]
    assert kinds[0] == "potrf" and kinds[-1] == "potrf"
    assert len(path) >= 3 * (5 - 1) + 1


def test_priorities_rank_panel_ops_highest():
    g, _ = potrf_graph(64 * 6, 64, "double")
    assign_priorities(g)
    by_kind = {}
    for t in g.tasks:
        by_kind.setdefault(t.op.kind, []).append(t.priority)
    assert max(by_kind["potrf"]) == max(t.priority for t in g.tasks)
    # The first panel dominates everything.
    first = next(t for t in g.tasks if t.label == "potrf[0]")
    assert first.priority == max(t.priority for t in g.tasks)


def test_priorities_none_scheme():
    g, _ = potrf_graph(64 * 4, 64, "double")
    assign_priorities(g, scheme="none")
    assert all(t.priority == 0 for t in g.tasks)


def test_priorities_unknown_scheme():
    g, _ = potrf_graph(64 * 3, 64, "double")
    with pytest.raises(ValueError):
        assign_priorities(g, scheme="magic")


def test_potrf_edges_respect_dataflow():
    """Every trsm[k] depends (transitively) on potrf[k]."""
    g, _ = potrf_graph(64 * 4, 64, "double")
    potrf0 = next(t for t in g.tasks if t.label == "potrf[0]")
    succ_labels = {s.label for s in potrf0.successors}
    assert {"trsm[1,0]", "trsm[2,0]", "trsm[3,0]"} <= succ_labels


def test_gemm_graph_handles_three_matrices():
    g, a, b, c = gemm_graph(128 * 2, 128, "double")
    assert a.n_handles == b.n_handles == c.n_handles == 4
    assert len(g.handles) == 12


def test_potrf_labels_and_handle_first_touch_order_are_pinned():
    g, _ = potrf_graph(4 * 64, 64, "double")
    assert [t.label for t in g.tasks] == (
        "potrf[0] trsm[1,0] trsm[2,0] trsm[3,0] syrk[1,0] gemm[2,1,0] "
        "gemm[3,1,0] syrk[2,0] gemm[3,2,0] syrk[3,0] potrf[1] trsm[2,1] "
        "trsm[3,1] syrk[2,1] gemm[3,2,1] syrk[3,1] potrf[2] trsm[3,2] "
        "syrk[3,2] potrf[3]"
    ).split()
    assert [" ".join(h.label for h, _ in t.accesses) for t in g.tasks] == [
        "A[0,0]", "A[0,0] A[1,0]", "A[0,0] A[2,0]", "A[0,0] A[3,0]",
        "A[1,0] A[1,1]", "A[2,1] A[2,0] A[1,0]", "A[3,1] A[3,0] A[1,0]",
        "A[2,0] A[2,2]", "A[3,2] A[3,0] A[2,0]", "A[3,0] A[3,3]", "A[1,1]",
        "A[1,1] A[2,1]", "A[1,1] A[3,1]", "A[2,1] A[2,2]",
        "A[3,2] A[3,1] A[2,1]", "A[3,1] A[3,3]", "A[2,2]", "A[2,2] A[3,2]",
        "A[3,2] A[3,3]", "A[3,3]",
    ]
    # Handles are created (hids drawn) in first-touch order.
    assert [h.label for h in g.handles] == (
        "A[0,0] A[1,0] A[2,0] A[3,0] A[1,1] A[2,1] A[3,1] A[2,2] A[3,2] A[3,3]"
    ).split()
    assert sorted(g.handles, key=lambda h: h.hid) == g.handles


def test_gemm_labels_and_handle_first_touch_order_are_pinned():
    g, *_ = gemm_graph(2 * 64, 64, "double")
    assert [t.label for t in g.tasks] == [
        f"gemm[{i},{j},{k}]" for i in range(2) for j in range(2) for k in range(2)
    ]
    assert [h.label for h in g.handles] == (
        "C[0,0] A[0,0] B[0,0] A[0,1] B[1,0] C[0,1] B[0,1] B[1,1] "
        "C[1,0] A[1,0] A[1,1] C[1,1]"
    ).split()
    assert sorted(g.handles, key=lambda h: h.hid) == g.handles
