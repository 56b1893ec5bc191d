"""Extension bench: dynamic capping DURING a task-based run.

The paper's future work: "dynamic power capping and its interaction with
scheduling decisions".  The governor hill-climbs each GPU's cap online while
dmdas (with EWMA performance models) keeps re-balancing; compared against
the static default and the static all-B oracle.
"""

from repro.core.dynamic_runtime import RuntimeCapGovernor
from repro.experiments.runner import ExperimentResult
from repro.hardware.catalog import build_platform
from repro.linalg import assign_priorities, gemm_graph
from repro.runtime import RuntimeSystem
from repro.sim import Simulator

PLATFORM = "32-AMD-4-A100"
NT = 12


def _run_one(mode: str):
    sim = Simulator()
    node = build_platform(PLATFORM, sim)
    if mode == "static-B":
        node.set_gpu_caps([220.0] * 4)
    rt = RuntimeSystem(
        node, scheduler="dmdas", seed=1,
        ewma_alpha=0.3 if mode == "dynamic" else None,
    )
    graph, *_ = gemm_graph(5760 * NT, 5760, "double")
    assign_priorities(graph)
    gov = None
    if mode == "dynamic":
        gov = RuntimeCapGovernor(node, rt, step_w=25.0)
        gov.start()
    res = rt.run(graph)
    final_caps = [f"{c:.0f}" for c in node.gpu_caps()]
    return res, final_caps


def _run():
    result = ExperimentResult(
        name="extension-dynamic-runtime",
        title=f"GEMM dp nt={NT} on {PLATFORM}: dynamic capping vs static",
        headers=["mode", "gflops", "energy_J", "eff_gflops_per_W", "final_caps_W"],
    )
    for mode in ("static-default", "dynamic", "static-B"):
        res, caps = _run_one(mode)
        result.rows.append(
            (mode, round(res.gflops, 1), round(res.total_energy_j, 1),
             round(res.gflops_per_watt, 2), "/".join(caps))
        )
    return result


def bench_extension_dynamic_runtime(benchmark, report):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    report(result)
    eff = {r[0]: r[3] for r in result.rows}
    # Dynamic must beat the default and recover a solid share of the
    # static-B oracle's gain, without knowing B in advance.
    assert eff["dynamic"] > eff["static-default"]
    gain_dyn = eff["dynamic"] / eff["static-default"] - 1
    gain_oracle = eff["static-B"] / eff["static-default"] - 1
    assert gain_dyn > 0.4 * gain_oracle
