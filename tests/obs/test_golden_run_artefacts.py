"""Byte-identity gates for ``repro trace`` and ``repro chaos`` artefacts.

- ``tests/data/golden_trace_tiny_potrf.json`` pins the sha256 of every
  artefact of one tiny POTRF traced run, written post-hoc and streamed;
- ``tests/data/golden_chaos_tiny_kill_throttle_stream.json`` pins the
  artefacts of one streamed tiny kill-throttle chaos run.

Any change to how a run is built or exported must leave every byte in
place.  The code version (``git rev-parse --short HEAD``) is a label in
``metrics.prom`` and in the streamed ``run_info`` header, so it is masked
before hashing; ``manifest.json`` is not pinned (it holds a timestamp).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.capconfig import CapConfig
from repro.experiments.platforms import cap_states, operation_spec
from repro.faults.chaos import run_chaos
from repro.faults.plan import preset_plan
from repro.obs.capture import run_traced
from repro.obs.manifest import code_version

DATA = Path(__file__).resolve().parents[1] / "data"
TRACE_GOLDEN = DATA / "golden_trace_tiny_potrf.json"
CHAOS_GOLDEN = DATA / "golden_chaos_tiny_kill_throttle_stream.json"


def artefact_digests(outdir: Path, names) -> dict:
    """sha256 per artefact, with the code-version label masked."""
    version = code_version()
    masks = [
        (f'"version":"{version}"', '"version":"<version>"'),
        (f'version="{version}"', 'version="<version>"'),
    ]
    digests = {}
    for name in names:
        data = (outdir / name).read_bytes()
        for old, new in masks:
            data = data.replace(old.encode(), new.encode())
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def _scenario(golden):
    sc = golden["scenario"]
    spec = operation_spec(sc["platform"], sc["op"], sc["precision"], sc["scale"])
    states = cap_states(sc["platform"], sc["op"], sc["precision"], sc["scale"])
    return sc, spec, states


@pytest.mark.parametrize("mode", ["posthoc", "stream"])
def test_traced_artefacts_match_golden(mode, tmp_path):
    golden = json.loads(TRACE_GOLDEN.read_text())
    sc, spec, states = _scenario(golden)
    run_traced(
        sc["platform"], spec, CapConfig(sc["config"]), states,
        outdir=str(tmp_path), seed=sc["seed"], scale=sc["scale"],
        cpu_caps={int(k): v for k, v in sc["cpu_caps"].items()},
        stream=mode == "stream",
    )
    expected = golden["sha256"][mode]
    assert artefact_digests(tmp_path, expected) == expected


def test_streamed_chaos_artefacts_match_golden(tmp_path):
    golden = json.loads(CHAOS_GOLDEN.read_text())
    sc, spec, states = _scenario(golden)
    chaos = run_chaos(
        sc["platform"], spec, CapConfig(sc["config"]), states,
        preset_plan(sc["preset"], seed=sc["plan_seed"]),
        outdir=str(tmp_path), seed=sc["seed"], scale=sc["scale"],
        stream=sc["stream"],
    )
    assert chaos.passed is True
    assert artefact_digests(tmp_path, golden["sha256"]) == golden["sha256"]
