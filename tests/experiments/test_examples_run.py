"""Every example script must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parents[2] / "examples").glob("*.py"),
    key=lambda p: p.name,
)

ARGS = {
    "unbalanced_gemm.py": ["4"],       # smaller tile count for CI speed
    "cholesky_tradeoff.py": ["10"],
}

EXPECT = {
    "quickstart.py": "best cap",
    "unbalanced_gemm.py": "device energy shares",
    "cholesky_tradeoff.py": "pick",
    "dynamic_governor.py": "offline optimum",
    "custom_platform.py": "efficiency",
    "heat_stencil.py": "nearly free",
}


def test_examples_exist():
    assert len(EXAMPLES) >= 3
    assert any(p.name == "quickstart.py" for p in EXAMPLES)


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script), *ARGS.get(script.name, [])],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert EXPECT[script.name] in proc.stdout
