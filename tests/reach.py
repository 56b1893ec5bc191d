"""Which ``src/repro`` functions run on the product side, and which only
under the tier-1 tests.

Not a test: run it by hand from the repository root (a few minutes for the
product side, several times tier-1's time for the tests side)::

    python tests/reach.py product OUT    # CLI, examples, README, perfbench, benches
    python tests/reach.py tests OUT      # tier-1 (``pytest tests``)
    python tests/reach.py report OUT     # counts; lists test-only and never-run

Every Python process a side starts runs under a ``sys.setprofile`` hook
(installed by a generated ``sitecustomize`` on ``PYTHONPATH``) that records
the ``src/repro`` code objects it enters and writes them to
``OUT/<side>/<pid>.json`` at exit.  Pool workers leave without running
``atexit``, so the product side runs with ``--jobs 1``.

A function is a ``def`` in ``src/repro`` (methods and nested functions
included; lambdas and comprehensions are part of their enclosing function).
A function's lines are its own, not those of the functions nested in it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_SITECUSTOMIZE = '''
import os

if os.environ.get("REPRO_REACH_OUT"):
    import atexit
    import json
    import sys
    import threading

    _SRC = os.environ["REPRO_REACH_SRC"]
    _PKG = os.path.join(_SRC, "repro", "")
    _seen = {}

    def _hook(frame, event, arg, _seen=_seen):
        if event == "call":
            code = frame.f_code
            _seen[id(code)] = code

    def _dump():
        sys.setprofile(None)
        hits = sorted({
            (os.path.relpath(c.co_filename, _SRC), c.co_firstlineno)
            for c in _seen.values() if c.co_filename.startswith(_PKG)
        })
        path = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(hits, fh)

    atexit.register(_dump)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''

def readme_snippets() -> list[str]:
    """Every ``python`` code block of the README."""
    text = (ROOT / "README.md").read_text()
    return [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]


def product_commands(work: Path) -> list[list[str]]:
    """The product side: what a user of the repository runs."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    cache = ["--cache-dir", str(work / "cache")]
    plan = work / "plan.json"
    plan.write_text(json.dumps({"name": "reach", "relative": True, "faults": [
        {"kind": "worker-kill", "time": 0.3, "target": "gpu-w0", "duration": 0.2},
        {"kind": "meter-dropout", "time": 0.5, "duration": 0.1},
    ]}))
    cmds = [
        repro + ["list"],
        repro + ["all", "--scale", "small", "--jobs", "1"],
        repro + ["fig3", "--scale", "tiny", "--jobs", "1"] + cache,
        repro + ["fig3", "--scale", "tiny", "--jobs", "1"] + cache,
        repro + ["cache"] + cache + ["stats"],
        repro + ["cache"] + cache + ["verify"],
        repro + ["cache"] + cache + ["gc", "--max-age", "30d"],
        repro + ["tradeoff", "--platform", "24-Intel-2-V100", "--op", "potrf",
                 "--scale", "tiny", "--jobs", "1"],
        repro + ["sweep", "--model", "A100-SXM4-40GB", "--n", "2048"],
        repro + ["run", "--scale", "tiny", "--outdir", str(work / "traced"),
                 "--spans", str(work / "spans.jsonl"), "--report"],
        repro + ["report", str(work / "traced")],
        repro + ["run", "--scale", "tiny", "--preset", "kill-throttle",
                 "--outdir", str(work / "chaos"), "--stream"],
        repro + ["watch", str(work / "chaos")],
        repro + ["report", str(work / "chaos")],
        repro + ["run", "--scale", "tiny", "--plan", str(plan)],
        repro + ["run", "--scale", "tiny", "--allocator", "efficiency",
                 "--preset", "kill-throttle", "--mix", "shift", "--stream",
                 "--outdir", str(work / "govern")],
        repro + ["trace", "--scale", "tiny", "--outdir", str(work / "trace")],
        repro + ["chaos"],
        repro + ["govern", "--budget", "500"],
        repro + ["cache"] + cache + ["clear"],
    ]
    cmds += [[py, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))]
    cmds += [[py, "-c", snippet] for snippet in readme_snippets()]
    for workload in ("potrf-paper", "reproduce-small", "advisor-mixed", "govern-faulted"):
        cmds.append([py, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                     "--seed", "0", "--seconds", "1", "--trace", "0"])
    cmds.append([py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--benchmark-disable", str(ROOT / "benchmarks")])
    return cmds


def tier1_commands() -> list[list[str]]:
    return [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             str(ROOT / "tests")]]


def run_side(side: str, out: Path) -> int:
    dump = out / side
    dump.mkdir(parents=True, exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        hook = Path(tmp) / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(_SITECUSTOMIZE)
        work = Path(tmp) / "work"
        work.mkdir()
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.pathsep.join([str(hook), str(SRC)]),
            REPRO_REACH_OUT=str(dump),
            REPRO_REACH_SRC=str(SRC),
        )
        env.pop("REPRO_CACHE_DIR", None)
        cmds = product_commands(work) if side == "product" else tier1_commands()
        for cmd in cmds:
            shown = " ".join(c if len(c) < 60 else c[:57] + "..." for c in cmd[1:])
            shown = shown.replace("\n", " ")
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
            print(f"[{side}] {status}: {shown}", flush=True)
            if proc.returncode != 0:
                failed += 1
                print(proc.stderr.strip()[-2000:], file=sys.stderr)
    return failed


def functions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(path, first line) -> (qualified name, own lines)`` of every def."""
    out: dict[tuple[str, int], tuple[str, int]] = {}

    def visit(node, path: str, prefix: str) -> int:
        """Record the defs under ``node``; return the lines they span."""
        spanned = 0
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                span = child.end_lineno - first + 1
                name = f"{prefix}{child.name}"
                nested = visit(child, path, name + ".")
                out[(path, first)] = (name, span - nested)
                spanned += span
            elif isinstance(child, ast.ClassDef):
                spanned += visit(child, path, f"{prefix}{child.name}.")
            else:
                spanned += visit(child, path, prefix)
        return spanned

    for file in sorted((SRC / "repro").rglob("*.py")):
        path = str(file.relative_to(SRC))
        visit(ast.parse(file.read_text()), path, "")
    return out


def reached(out: Path, side: str) -> set[tuple[str, int]]:
    hits: set[tuple[str, int]] = set()
    for dump in (out / side).glob("*.json"):
        hits.update((path, line) for path, line in json.loads(dump.read_text()))
    return hits


def report(out: Path) -> dict:
    funcs = functions()
    product = reached(out, "product") & funcs.keys()
    tests = reached(out, "tests") & funcs.keys()
    groups = {
        "product": product,
        "test_only": tests - product,
        "never": funcs.keys() - product - tests,
    }
    summary = {
        name: {"functions": len(keys), "lines": sum(funcs[k][1] for k in keys)}
        for name, keys in groups.items()
    }
    summary["total"] = {"functions": len(funcs),
                        "lines": sum(lines for _, lines in funcs.values())}
    for name in ("test_only", "never"):
        listing = out / f"{name}.txt"
        listing.write_text("".join(
            f"{path}:{line} {funcs[(path, line)][0]} ({funcs[(path, line)][1]} lines)\n"
            for path, line in sorted(groups[name])
        ))
    return summary


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("product", "tests", "report"):
        print(__doc__, file=sys.stderr)
        return 2
    side, out = argv[0], Path(argv[1]).resolve()
    if side == "report":
        print(json.dumps(report(out), indent=2))
        return 0
    return 1 if run_side(side, out) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
