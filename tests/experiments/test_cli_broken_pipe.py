"""A reader that closes ``repro``'s stdout early gets no traceback.

``repro ... | head -1`` must end quietly: an empty stderr and exit 141,
the status of a tool killed by SIGPIPE.  Each case runs ``repro`` in a
subprocess, since the failure is on the process's real stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import EXIT_BROKEN_PIPE

SRC = str(Path(repro.__file__).resolve().parents[1])


def _env(unbuffered: bool) -> dict:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("argv", [
    ["run", "--preset", "help"],
    ["run", "--allocator", "help"],
    ["list"],
    ["run", "--help"],
])
def test_closed_pipe_exits_quietly(argv, tmp_path):
    """The read end is gone before ``repro`` writes: with stdout block
    buffered, the first write is main's closing flush (after argparse's
    exit, for ``--help``)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv], stdout=write_end,
            stderr=subprocess.PIPE, cwd=tmp_path, env=_env(unbuffered=False),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_BROKEN_PIPE


def test_pipe_closed_after_one_line_exits_quietly(tmp_path):
    """``repro all | head -1``: the reader leaves after the first line
    while ``repro`` is still writing (unbuffered, so mid-run)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "all", "--scale", "tiny", "--jobs", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env=_env(unbuffered=True),
    )
    assert proc.stdout.readline().startswith(b"[")
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=600) == EXIT_BROKEN_PIPE
    assert stderr == b""
