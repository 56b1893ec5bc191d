"""``repro run`` is the one front door for single runs.

- The streamed chaos and govern goldens in ``tests/data`` reproduce through
  ``repro run`` flags alone.
- Each alias (``trace``, ``chaos``, ``govern``) is ``repro run`` with other
  defaults: it prints the same stdout and writes the same artefacts, byte
  for byte, as its ``repro run`` spelling.  ``manifest.json`` is left out
  (it holds a timestamp).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.manifest import code_version

DATA = Path(__file__).resolve().parents[1] / "data"


def _masked_digests(outdir: Path, names) -> dict:
    """sha256 per artefact, with the code-version label masked as the
    goldens are."""
    version = code_version()
    digests = {}
    for name in names:
        data = (outdir / name).read_bytes()
        for old, new in ((f'"version":"{version}"', '"version":"<version>"'),
                         (f'version="{version}"', 'version="<version>"')):
            data = data.replace(old.encode(), new.encode())
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("golden, argv", [
    ("golden_chaos_tiny_kill_throttle_stream.json",
     ["--op", "potrf", "--scale", "tiny", "--config", "HH",
      "--preset", "kill-throttle", "--seed", "0", "--stream"]),
    ("golden_govern_small_shift_kill_throttle.json",
     ["--allocator", "efficiency", "--preset", "kill-throttle",
      "--mix", "shift", "--seed", "123", "--scale", "small", "--stream"]),
], ids=["chaos", "govern"])
def test_goldens_reproduce_through_repro_run(golden, argv, tmp_path, capsys):
    expected = json.loads((DATA / golden).read_text())["sha256"]
    assert main(["run", *argv, "--outdir", str(tmp_path)]) == 0
    assert "audit: PASS" in capsys.readouterr().out
    assert _masked_digests(tmp_path, expected) == expected


@pytest.mark.parametrize("alias, run_argv", [
    (["trace", "--config", "HL", "--op", "potrf", "--scale", "tiny", "--stream"],
     ["--config", "HL", "--op", "potrf", "--scale", "tiny", "--stream"]),
    (["chaos", "--preset", "kill-throttle"],
     ["--op", "potrf", "--scale", "tiny", "--preset", "kill-throttle"]),
    (["govern", "--preset", "hang", "--mix", "shift", "--seed", "3"],
     ["--scale", "tiny", "--allocator", "efficiency", "--preset", "hang",
      "--mix", "shift", "--seed", "3"]),
], ids=["trace", "chaos", "govern"])
def test_alias_matches_its_repro_run_spelling(alias, run_argv, tmp_path, capsys):
    outputs = []
    for argv, outdir in ((alias, tmp_path / "alias"), (["run", *run_argv], tmp_path / "run")):
        assert main([*argv, "--outdir", str(outdir)]) == 0
        stdout = capsys.readouterr().out.replace(str(outdir), "<outdir>")
        files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
                 if p.name != "manifest.json"}
        outputs.append((stdout, files))
    (alias_out, alias_files), (run_out, run_files) = outputs
    assert alias_out == run_out
    assert "events.jsonl" in alias_files and "trace.json" in alias_files
    assert alias_files.keys() == run_files.keys()
    for name in alias_files:
        assert alias_files[name] == run_files[name], name
