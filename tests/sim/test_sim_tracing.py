"""Unit tests for trace collection."""

import pytest

from repro.sim import Interval, Tracer


def test_interval_duration_and_overlap():
    a = Interval("r", "task", 1.0, 3.0)
    b = Interval("r", "task", 2.5, 4.0)
    c = Interval("r", "task", 3.0, 4.0)
    assert a.duration == 2.0
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)  # half-open: touching endpoints do not overlap


def test_interval_rejects_negative_duration():
    tr = Tracer()
    with pytest.raises(ValueError):
        tr.interval("r", "task", 2.0, 1.0)


def test_by_resource_and_kind_filters():
    tr = Tracer()
    tr.interval("gpu0", "task", 0.0, 1.0, "gemm")
    tr.interval("gpu1", "task", 0.0, 2.0, "gemm")
    tr.interval("gpu0", "xfer", 1.0, 1.5)
    assert len(tr.by_resource("gpu0")) == 2
    assert len(tr.by_kind("task")) == 2
    assert tr.resources() == ["gpu0", "gpu1"]


def test_busy_time_merges_overlaps():
    tr = Tracer()
    tr.interval("w", "task", 0.0, 2.0)
    tr.interval("w", "task", 1.0, 3.0)   # overlaps
    tr.interval("w", "task", 5.0, 6.0)   # disjoint
    assert tr.busy_time("w") == pytest.approx(4.0)


def test_busy_time_kind_filter():
    tr = Tracer()
    tr.interval("w", "task", 0.0, 1.0)
    tr.interval("w", "xfer", 2.0, 5.0)
    assert tr.busy_time("w", kinds=["task"]) == pytest.approx(1.0)


def test_makespan_empty_and_filled():
    tr = Tracer()
    assert tr.makespan() == 0.0
    tr.interval("a", "task", 0.0, 2.0)
    tr.interval("b", "task", 1.0, 7.0)
    assert tr.makespan() == 7.0


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    tr.interval("a", "task", 0.0, 1.0)
    tr.point("a", "cap", 0.5)
    assert tr.intervals == [] and tr.points == []


def test_to_records_flattens_info():
    tr = Tracer()
    tr.interval("l", "xfer", 0.0, 1.0, "h2d", nbytes=42)
    (rec,) = tr.to_records()
    assert rec["nbytes"] == 42 and rec["resource"] == "l"


def test_points_recorded():
    tr = Tracer()
    tr.point("gpu0", "cap", 3.0, "216W", watts=216.0)
    assert tr.points[0].info["watts"] == 216.0


def test_by_resource_index_matches_naive_filter():
    # by_resource is served from a per-resource index; it must stay
    # equivalent to scanning the flat interval list.
    tr = Tracer()
    for i in range(50):
        tr.interval(f"w{i % 5}", "task", float(i), float(i) + 0.5)
    for resource in tr.resources():
        assert tr.by_resource(resource) == [
            iv for iv in tr.intervals if iv.resource == resource
        ]


def test_by_resource_returns_copy():
    tr = Tracer()
    tr.interval("w0", "task", 0.0, 1.0)
    tr.by_resource("w0").clear()
    assert len(tr.by_resource("w0")) == 1
    assert tr.by_resource("unknown") == []
