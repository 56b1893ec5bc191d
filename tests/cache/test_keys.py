"""Key determinism and the code fingerprint."""

import subprocess
import sys
import textwrap

import pytest

from repro.cache.keys import (
    KEY_SCHEMA,
    canonical_json,
    code_fingerprint,
    digest,
    run_key,
)


def test_canonical_json_is_order_insensitive():
    a = {"b": 1, "a": {"y": 2, "x": 3}}
    b = {"a": {"x": 3, "y": 2}, "b": 1}
    assert canonical_json(a) == canonical_json(b)
    assert digest(a) == digest(b)


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"v": float("nan")})


def test_run_key_changes_with_fingerprint_and_call():
    call = {"fn": "run_operation", "seed": 0}
    k = run_key("fp1", call)
    assert k == run_key("fp1", dict(call))
    assert k != run_key("fp2", call)
    assert k != run_key("fp1", {"fn": "run_operation", "seed": 1})
    assert len(k) == 64 and int(k, 16) >= 0


def test_key_schema_participates():
    # Guards against silently reusing keys across key-layout changes.
    call = {"fn": "x"}
    doc = {"schema": KEY_SCHEMA, "fingerprint": "fp", "call": call}
    assert run_key("fp", call) == digest(doc)


def test_key_stable_across_processes():
    # PYTHONHASHSEED varies between interpreters; keys must not.
    import repro
    from pathlib import Path

    src = str(Path(repro.__file__).resolve().parents[1])
    code = textwrap.dedent(
        """
        import sys
        sys.path.insert(0, %r)
        from repro.cache.keys import run_key
        print(run_key("fp", {"b": 1, "a": [1.5, 2.25]}))
        """
    ) % src
    keys = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        ).stdout.strip()
        for seed in ("0", "1", "12345")
    }
    assert len(keys) == 1
    assert keys == {run_key("fp", {"a": [1.5, 2.25], "b": 1})}


def test_code_fingerprint_tracks_source_edits(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("X = 1\n")
    (pkg / "b.py").write_text("Y = 2\n")
    fp0 = code_fingerprint(pkg)
    assert fp0 == code_fingerprint(pkg)  # deterministic

    (pkg / "a.py").write_text("X = 99\n")
    fp_edit = code_fingerprint(pkg)
    assert fp_edit != fp0

    (pkg / "a.py").write_text("X = 1\n")
    assert code_fingerprint(pkg) == fp0  # content-addressed, reverts cleanly

    (pkg / "c.py").write_text("")
    fp_add = code_fingerprint(pkg)
    assert fp_add not in (fp0, fp_edit)  # additions flip it too

    (pkg / "c.py").unlink()
    (pkg / "a.py").rename(pkg / "a2.py")
    assert code_fingerprint(pkg) not in (fp0, fp_edit, fp_add)  # renames too


def test_default_fingerprint_is_memoised_and_stable():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


def test_cache_keys_are_pinned():
    """Literal keys for each cacheable call shape under a fixed fingerprint.

    A change here invalidates every existing ``.repro-cache`` store: keep
    the call documents (and so these bytes) stable across refactors.
    """
    from repro.cache import ExperimentCache
    from repro.cache.experiment import operation_call
    from repro.core.capconfig import CapConfig, CapStates
    from repro.core.tradeoff import OperationSpec

    cache = ExperimentCache(".", fingerprint="0" * 64)
    platform = "24-Intel-2-V100"
    spec = OperationSpec(op="gemm", n=1920 * 4, nb=1920, precision="double")
    states = CapStates(h_w=250.0, b_w=150.0, l_w=100.0)
    run7 = (platform, spec, CapConfig("HB"), states, "dmdas", 3, {1: 60.0})
    assert cache.key_for("run_operation", run7) == (
        "02a6c645db3504fbeceef67296c1556c0936300fd17d517dba380230164fcc0d")
    assert cache.key_for("sweep_gemm", ("V100-PCIE-32GB", 1024, "double", 2.0)) == (
        "a6bea5693bfd59b193db084f4c13ed77d8b1df80a798d7cea99e5e131de6fedc")
    sweep6 = ("A100-SXM4-40GB", 5120, "single", 5.0, 4096, 2048)
    assert cache.key_for("sweep_gemm", sweep6) == (
        "08c26bfd680247aa4a3635be6bfe102bd4569ed0d9d2a4242b1299cb0238023c")
    chaos = operation_call("chaos_baseline", platform, spec, CapConfig("HL"),
                           states, "dmdas", 0, None)
    assert cache.key_for_call(chaos) == (
        "bceab08b233cfb8417723ebfbbe28f9e85ce6dfe668e096030148e24ae9b866d")
