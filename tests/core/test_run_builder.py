"""One way to build a run: only ``core/runs.py`` constructs a runtime, and
``RunSpec.validate()`` turns command-line values into a buildable spec."""

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


PLATFORM = "24-Intel-2-V100"


def _spec(config=None, **fields):
    """A spec as the command line builds it: names only, letters unparsed."""
    from repro.core.runs import RunSpec

    return RunSpec(PLATFORM, None, config, None, **fields)


def test_validate_parses_letters_and_fills_the_default_budget():
    from repro.core.capconfig import CapConfig
    from repro.govern.run import default_budget_w

    spec = _spec(config="hl").validate()
    assert spec.config == CapConfig("HL") and spec.budget_w is None
    assert _spec().validate().config == CapConfig("HH")
    governed = _spec(governor="efficiency").validate()
    assert governed.budget_w == default_budget_w(PLATFORM)
    assert governed.validate() == governed
