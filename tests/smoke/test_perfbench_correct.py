"""perfbench's correctness verdicts, one test per workload and trace mode.

Each test runs ``perfbench/run.py --seconds 1`` in a subprocess, as a user
would, and reads the JSON object on its last line:

- ``--trace 0``: ``"correct"`` is true and ``"failed"`` is 0.  potrf-paper
  holds every repeat of a configuration to identical ``ConfigMetrics``;
  reproduce-small holds the fig3 rows to the golden ones and the warm
  replays to the cold rows; advisor-mixed holds every cold answer to its
  warm replay; govern-faulted holds the repeated unit's ``govern.json`` to
  the first one's and every resilience audit to PASS.
- ``--trace 1``: ``"correct"`` is true, which fails when a name the
  per-layer tracer wraps stops being called.  govern-faulted is the only
  workload that reaches the recovery hooks under the wrappers.

Collected only with ``REPRO_SMOKE=1`` (see ``tests/conftest.py``); each
takes seconds to a minute.  With ``REPRO_SMOKE_OUT`` set, each run's
output is kept there as ``<workload>.txt`` (``<workload>-trace.txt``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

CASES = [
    ("potrf-paper", 0),
    ("reproduce-small", 0),
    ("advisor-mixed", 0),
    ("govern-faulted", 0),
    ("potrf-paper", 1),
    ("govern-faulted", 1),
]


@pytest.mark.parametrize(
    "workload, trace", CASES, ids=[f"{w}-trace{t}" for w, t in CASES]
)
def test_perfbench_reads_correct(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    out = Path(os.environ.get("REPRO_SMOKE_OUT", tmp_path))
    name = f"{workload}-trace.txt" if trace else f"{workload}.txt"
    (out / name).write_text(proc.stdout)
    assert proc.stdout.strip(), proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True, doc
    if not trace:
        assert doc["failed"] == 0, doc
