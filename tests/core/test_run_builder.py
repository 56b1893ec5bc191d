"""One way to build a run: only ``core/runs.py`` constructs a runtime."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent


def _constructs_runtime(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "RuntimeSystem"


def test_runtime_system_is_constructed_only_in_build_run():
    sites = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if any(map(_constructs_runtime, ast.walk(ast.parse(path.read_text()))))
    }
    assert sites == {"core/runs.py"}
