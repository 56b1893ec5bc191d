"""Property-based tests: per-key estimate rows equal the tuple-keyed cache.

:class:`repro.runtime.perfmodel.PerfModelSet` keeps resolved estimates in
one row per model key, indexed by an architecture slot, and the dm class
scan reads those rows directly.  Here random sequences of model updates
and reads run through it and through :mod:`perfmodel_oracle` (the models
as they were with one ``(key, arch)``-keyed dict), with EWMA on and off.
After every step both must give bit-equal estimates for every key and
arch, and equal cache-hit and cache-miss counts.
"""

import copy

from hypothesis import given, settings, strategies as st

from perfmodel_oracle import OraclePerfModelSet
from repro.kernels.tile_kernels import TileOp
from repro.runtime.perfmodel import HistoryModel, PerfModelSet

#: Two tile sizes of one kernel, so the regression fallback has a fit.
OPS = [
    TileOp("gemm", 64, "double"), TileOp("gemm", 128, "double"),
    TileOp("potrf", 64, "double"), TileOp("gemm", 64, "single"),
]
ARCHS = ["cuda0", "cuda1", "cpu0"]
DURATIONS = st.one_of(
    st.sampled_from([1e-3, 2e-3, 0.5, 1.0]),
    st.floats(1e-9, 10.0, allow_nan=False, allow_infinity=False),
)

STEPS = st.one_of(
    st.tuples(st.just("record"), st.sampled_from(OPS), st.sampled_from(ARCHS), DURATIONS),
    st.tuples(st.just("estimate"), st.sampled_from(OPS), st.sampled_from(ARCHS)),
    # A class scan: one row fetch, then one read per class's slot.
    st.tuples(st.just("scan"), st.sampled_from(OPS),
              st.lists(st.sampled_from(ARCHS), min_size=1, max_size=4)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("enable_regression")),
    st.tuples(st.just("invalidate_arch"), st.sampled_from(ARCHS)),
)


def _scan(perf: PerfModelSet, op, archs) -> list:
    """The dm class scan's read: a filled slot is a hit, counted once per
    decision; an empty one goes through ``estimate()``."""
    slots = [perf.arch_slot(arch) for arch in archs]
    row = perf.row(op)
    out, hits = [], 0
    for slot, arch in zip(slots, archs):
        est = row[slot]
        if est is None:
            est = perf.estimate(op, arch)
        else:
            hits += 1
        out.append(est)
    perf.n_cache_hits += hits
    return out


def _apply(model, step, rows: bool):
    action, *args = step
    if action == "scan":
        op, archs = args
        if rows:
            return _scan(model, op, archs)
        return [model.estimate(op, arch) for arch in archs]
    return getattr(model, action)(*args)


def _every_estimate(model) -> list:
    """Every key's estimate on every arch, read from a copy of ``model``."""
    model = copy.deepcopy(model)
    values = [model.estimate(op, arch).hex() for op in OPS for arch in ARCHS]
    return values + [model.n_cache_hits, model.n_cache_misses]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([None, 0.5, 0.25]), st.lists(STEPS, max_size=40))
def test_rows_equal_the_tuple_keyed_cache(ewma_alpha, steps):
    perf = PerfModelSet(history=HistoryModel(ewma_alpha=ewma_alpha))
    oracle = OraclePerfModelSet(ewma_alpha)
    for step in steps:
        got = _apply(perf, step, rows=True)
        expected = _apply(oracle, step, rows=False)
        if isinstance(got, list):
            got, expected = [v.hex() for v in got], [v.hex() for v in expected]
        elif isinstance(got, float):
            got, expected = got.hex(), expected.hex()
        assert got == expected, step
        assert (perf.n_cache_hits, perf.n_cache_misses) == (
            oracle.n_cache_hits, oracle.n_cache_misses
        ), step
        assert _every_estimate(perf) == _every_estimate(oracle), step
