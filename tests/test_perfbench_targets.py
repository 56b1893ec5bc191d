"""Every name the benchmark's tracer wraps still exists in ``src``.

``perfbench/tracing.py`` resolves its ``TARGETS`` with ``getattr`` when a
traced run starts, and raises when one is gone.  This test resolves them the
same way (a module attribute, or a class or subclass that defines the
method) without patching anything, so deleting a traced name fails here,
not only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("target", [t[0] for t in tracing.TARGETS])
def test_target_resolves(target):
    for module_name in tracing.PRELOAD:
        importlib.import_module(module_name)
    module, cls_name, attr = tracing._resolve(target)
    if cls_name is None:
        assert callable(getattr(module, attr, None)), f"{target}: no such function"
        return
    base = getattr(module, cls_name.rstrip("+"), None)
    assert base is not None, f"{target}: no class {cls_name.rstrip('+')}"
    classes = tracing._subclasses(base) if cls_name.endswith("+") else [base]
    assert any(attr in cls.__dict__ for cls in classes), f"{target}: no class defines {attr}"
