"""Golden decision-replay gate for the hot-loop refactor.

The tuple-heap engine, array-structured scheduler state, and vectorized
placement scoring are all justified by one invariant: they change *how
fast* decisions are computed, never *which* decisions are computed.  This
module pins that invariant to committed artifacts:

- ``tests/data/golden_decisions_potrf_tiny_HH.jsonl`` — every placement
  decision (chosen worker, folded cost, and the full per-class candidate
  breakdown, float-exact) of the reference scenario, captured before the
  refactor;
- ``tests/data/golden_fig3_small_rows.json`` — the fig3 small-scale result
  rows, captured before the refactor.

Any optimisation that perturbs a single tie-break, float fold order, or
RNG consumption shows up here as a hard failure — this is the regression
gate that lets perf work (measured by ``perfbench/``) chase throughput
without a correctness referee in the room.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.platforms import cap_states, config_list, operation_spec
from repro.hardware.catalog import build_platform
from repro.obs.decisions import DecisionLog
from repro.runtime import RuntimeSystem
from repro.sim import Simulator

DATA = Path(__file__).resolve().parents[1] / "data"
GOLDEN_DECISIONS = DATA / "golden_decisions_potrf_tiny_HH.jsonl"
GOLDEN_FIG3 = DATA / "golden_fig3_small_rows.json"

#: Exact makespan of the golden scenario; pinned separately from the
#: decision log so a run that places identically but times differently
#: (an engine-ordering bug) still fails.
GOLDEN_MAKESPAN_S = 0.8740735383698985


@pytest.fixture(scope="module")
def golden_run():
    """The golden scenario replayed on the current code, log attached."""
    platform = "24-Intel-2-V100"
    spec = operation_spec(platform, "potrf", "double", "tiny")
    states = cap_states(platform, "potrf", "double", "tiny")
    config = next(c for c in config_list(platform) if set(c.letters) == {"H"})
    sim = Simulator()
    node = build_platform(platform, sim)
    node.set_gpu_caps(config.watts(states))
    log = DecisionLog()
    runtime = RuntimeSystem(node, scheduler="dmdas", seed=0, decision_log=log)
    result = runtime.run(spec.build_graph())
    return result, log


def test_every_decision_matches_golden_log(golden_run):
    _, log = golden_run
    golden = list(DecisionLog.read_jsonl(str(GOLDEN_DECISIONS)))
    fresh = list(log)
    assert len(fresh) == len(golden)
    mismatches = [
        (a.tid, a.chosen, b.chosen)
        for a, b in zip(golden, fresh)
        # to_record() serialises chosen cost and every candidate class's
        # backlogs/terms/costs as floats — equality here is bit-equality.
        if a.to_record() != b.to_record()
    ]
    assert mismatches == []


def test_golden_makespan_is_exact(golden_run):
    result, _ = golden_run
    assert result.makespan_s == GOLDEN_MAKESPAN_S


def test_golden_log_self_replays(golden_run):
    # Each recorded decision must be reproducible from its own candidate
    # costs (argmin with lowest-index tie-break) — the oracle the decision
    # log was built around in the first place.
    _, log = golden_run
    assert log.verify_replay() == []


def test_fig3_small_rows_byte_identical(tmp_path):
    """Cold on a fresh cache: the golden rows.  Warm: all hits, no events."""
    from repro.cache import ExperimentCache
    from repro.experiments import fig3_double
    from repro.sim import ENGINE_TOTALS

    def canonical(doc):
        return json.dumps(doc, indent=1, sort_keys=True)

    golden = json.loads(GOLDEN_FIG3.read_text())
    cold_cache = ExperimentCache(tmp_path)
    res = fig3_double.run(scale="small", cache=cold_cache)
    fresh = {"headers": res.headers, "rows": [list(r) for r in res.rows]}
    assert canonical(fresh) == canonical(golden)
    assert cold_cache.misses > 0

    # A fresh cache object on the same store isolates the warm counters.
    warm_cache = ExperimentCache(tmp_path, fingerprint=cold_cache.fingerprint)
    events_before = ENGINE_TOTALS.snapshot()[0]
    warm = fig3_double.run(scale="small", cache=warm_cache)
    assert warm.rows == res.rows
    assert warm_cache.misses == 0
    assert warm_cache.hits == cold_cache.hits + cold_cache.misses
    assert ENGINE_TOTALS.snapshot()[0] == events_before
