"""Unit tests for the analytic bound-and-prune sweep planner."""

import itertools

import numpy as np
import pytest

from repro.core import planner as planner_mod
from repro.core.bestcap import best_cap_watts
from repro.core.capconfig import CapConfig, CapStates, standard_configs
from repro.core.planner import (
    ENERGY_SLACK,
    MAKESPAN_SLACK,
    OBJECTIVES,
    OperationModel,
    analytic_cap_curve,
    analytic_sweep_points,
    audit_plan,
    best_ladder_under_budget,
    best_sweep_point,
    get_objective,
    grid_operating_points,
    plan_configs,
)
from repro.core.sweep import best_point, cap_grid, simulated_sweep_gemm, sweep_gemm
from repro.core.tradeoff import OperationSpec, best_config, run_config_set
from repro.experiments.platforms import (
    PAPER_CPU_CAPS,
    cap_states,
    config_list,
    operation_spec,
)
from repro.hardware.catalog import _profiles, gpu_models, gpu_spec
from repro.hardware.specs import GPUSpec

# ------------------------------------------------------------ exact sweep gate


@pytest.mark.parametrize(
    "model,precision,step",
    [
        ("V100-PCIE-32GB", "double", 10.0),
        ("A100-SXM4-40GB", "single", 5.0),
        ("H100-SXM5-80GB", "double", 10.0),
        ("A100-PCIE-40GB", "double", 3.7),  # non-representable step
    ],
)
def test_analytic_sweep_bit_identical_to_simulated(model, precision, step):
    analytic = sweep_gemm(model, 1024, precision, step_pct=step)
    simulated = simulated_sweep_gemm(model, 1024, precision, step_pct=step)
    # Full-list byte identity: every field of every point, not approx.
    assert analytic == simulated


def test_analytic_sweep_bit_identical_on_adhoc_spec():
    spec = GPUSpec(
        model="adhoc-gpu",
        memory_gb=16.0,
        tdp_w=300.0,
        cap_min_w=120.0,
        cap_max_w=300.0,
        idle_w=25.0,
        n_sm=60,
        mem_bw_gbs=700.0,
        peak_gflops={"double": 5000.0, "single": 10000.0},
        power_profiles=_profiles(
            {
                "double": (280.0, 180.0, 0.80, (120.0, 0.40)),
                "single": (270.0, 170.0, 0.80, (120.0, 0.45)),
            },
            cap_min=120.0,
            f_min=0.12,
        ),
    )
    assert sweep_gemm(spec, 2048, "double", step_pct=7.3) == simulated_sweep_gemm(
        spec, 2048, "double", step_pct=7.3
    )


def test_rectangular_sweep_bit_identical():
    a = sweep_gemm("A100-PCIE-40GB", 1024, "single", step_pct=10.0, m=2048, k=512)
    s = simulated_sweep_gemm(
        "A100-PCIE-40GB", 1024, "single", step_pct=10.0, m=2048, k=512
    )
    assert a == s


# -------------------------------------------------------------------- cap grid


def test_cap_grid_is_index_based_no_drift():
    spec = gpu_spec("V100-PCIE-32GB")
    step = 3.7
    caps = cap_grid(spec, step)
    pct_lo = 100.0 * spec.cap_min_w / spec.tdp_w
    # Every interior cap is exactly min + i*step of TDP — no accumulated error.
    for i, cap in enumerate(caps[:-1]):
        assert cap == max(spec.cap_min_w, spec.tdp_w * (pct_lo + i * step) / 100.0)
    assert caps[-1] == spec.cap_max_w


def test_cap_grid_matches_historical_accumulation_for_default_steps():
    # For drift-free steps the index grid must be bit-identical to the old
    # ``pct += step`` loop (cache keys and sweep values unchanged).
    for model in ("V100-PCIE-32GB", "A100-SXM4-40GB", "A100-PCIE-40GB"):
        spec = gpu_spec(model)
        for step in (2.0, 5.0, 10.0):
            pct = 100.0 * spec.cap_min_w / spec.tdp_w
            old = []
            while pct < 100.0 * spec.cap_max_w / spec.tdp_w - 1e-9:
                old.append(max(spec.cap_min_w, spec.tdp_w * pct / 100.0))
                pct += step
            old.append(spec.cap_max_w)
            assert cap_grid(spec, step) == old


@pytest.mark.parametrize("step", [0.0, -2.0, float("nan"), float("inf")])
def test_cap_grid_rejects_steps_that_never_reach_the_top(step):
    with pytest.raises(ValueError, match="step_pct must be finite and > 0"):
        cap_grid(gpu_spec("V100-PCIE-32GB"), step)


def test_cap_grid_endpoints_and_monotone():
    spec = gpu_spec("H100-SXM5-80GB")
    caps = cap_grid(spec, 2.0)
    assert caps[0] == spec.cap_min_w
    assert caps[-1] == spec.cap_max_w
    assert caps == sorted(caps)


# ------------------------------------------------------------------ objectives


def test_objective_registry_and_alias():
    assert get_objective("gflops_per_w") is OBJECTIVES["efficiency"]
    assert get_objective("edp").maximise is False
    with pytest.raises(ValueError):
        get_objective("joules-per-meme")


def test_best_sweep_point_matches_legacy_best_point():
    points = sweep_gemm("A100-SXM4-40GB", 2048, "double", step_pct=5.0)
    assert best_sweep_point(points, "efficiency") is best_point(points)
    # Orientation sanity for the minimising objectives.
    assert best_sweep_point(points, "energy").energy_j == min(
        p.energy_j for p in points
    )
    assert best_sweep_point(points, "makespan").time_s == min(
        p.time_s for p in points
    )


def test_best_cap_watts_objective_passthrough():
    eff = best_cap_watts("V100-PCIE-32GB", "double", 2880)
    gfl = best_cap_watts("V100-PCIE-32GB", "double", 2880, objective="gflops")
    points = sweep_gemm("V100-PCIE-32GB", 2880, "double")
    top = max(p.gflops for p in points)
    # Raw throughput picks the cheapest cap delivering peak throughput
    # (ties above the saturation knee break toward the lower cap).
    assert gfl == min(p.cap_w for p in points if p.gflops == top)
    assert eff < gfl


# ----------------------------------------------------- vectorized prepass


def test_grid_operating_points_bit_match_scalar_bisection():
    spec = gpu_spec("A100-SXM4-40GB")
    prof = spec.power_profiles["double"]
    caps = cap_grid(spec, 2.0)
    for act in (1.0, 0.45):
        f, perf, power = grid_operating_points(prof, caps, act)
        for i, cap in enumerate(caps):
            f_scalar = prof.freq_at_cap(cap, act)
            # The bisected frequency is bit-identical (it drives the exact
            # replay path); the derived pow() terms may differ by one ulp
            # between numpy and libm.
            assert f[i] == f_scalar
            assert perf[i] == pytest.approx(prof.perf_scale(f_scalar), rel=1e-12)
            assert power[i] == pytest.approx(prof.power(f_scalar, act), rel=1e-12)


def test_analytic_cap_curve_tracks_exact_replay():
    curve = analytic_cap_curve("V100-PCIE-32GB", 2048, "double", step_pct=5.0)
    exact = analytic_sweep_points("V100-PCIE-32GB", 2048, "double", step_pct=5.0)
    assert len(curve["cap_w"]) == len(exact)
    # The curve ignores only millijoule quantisation; agreement is ~1e-6.
    np.testing.assert_allclose(
        curve["time_s"], [p.time_s for p in exact], rtol=1e-5
    )
    np.testing.assert_allclose(
        curve["efficiency"], [p.efficiency for p in exact], rtol=1e-3
    )


# ------------------------------------------------------------ plan-and-prune

_PLATFORM = "24-Intel-2-V100"


def _tiny_case(op="gemm", precision="double"):
    spec = operation_spec(_PLATFORM, op, precision, "tiny")
    states = cap_states(_PLATFORM, op, precision, "tiny")
    return spec, states, config_list(_PLATFORM)


def _exhaustive_best(platform, spec, configs, states, objective, cpu_caps):
    obj = get_objective(objective)
    metrics = run_config_set(platform, spec, configs, states, cpu_caps=cpu_caps)
    order = {c.letters: i for i, c in enumerate(configs)}
    winner = min(
        metrics,
        key=lambda letters: (
            planner_mod._rank(obj, obj.score(metrics[letters])),
            order[letters],
        ),
    )
    return winner, metrics[winner]


@pytest.mark.parametrize("objective", ["efficiency", "edp", "makespan"])
def test_plan_matches_exhaustive_scan(objective):
    spec, states, configs = _tiny_case()
    cpu_caps = PAPER_CPU_CAPS[_PLATFORM]
    plan = plan_configs(
        _PLATFORM, spec, configs, states, objective=objective, cpu_caps=cpu_caps
    )
    winner, metrics = _exhaustive_best(
        _PLATFORM, spec, configs, states, objective, cpu_caps
    )
    # Byte-identical winner AND metrics — the exactness gate.
    assert plan.winner == winner
    assert plan.metrics == metrics
    assert plan.report.n_simulated + plan.report.n_pruned == len(configs)


def test_plan_single_config_grid():
    spec, states, _ = _tiny_case()
    plan = plan_configs(_PLATFORM, spec, [CapConfig("HH")], states)
    assert plan.winner == "HH"
    assert plan.report.n_simulated == 1
    assert plan.report.n_pruned == 0


def test_plan_empty_and_duplicate_grids_rejected():
    spec, states, _ = _tiny_case()
    with pytest.raises(ValueError):
        plan_configs(_PLATFORM, spec, [], states)
    with pytest.raises(ValueError):
        plan_configs(_PLATFORM, spec, [CapConfig("HH"), CapConfig("HH")], states)


def test_plan_all_pruned_but_one(monkeypatch):
    """Pruning mechanics: a grid whose estimates leave one possible winner."""
    spec, states, configs = _tiny_case()
    real_estimate = OperationModel.estimate

    def skewed(self, cfgs):
        est = real_estimate(self, cfgs)
        # Push every config except the first far outside any slack window.
        first = cfgs[0].letters
        return {
            letters: (t, e) if letters == first else (t * 1e6, e * 1e6)
            for letters, (t, e) in est.items()
        }

    monkeypatch.setattr(OperationModel, "estimate", skewed)
    plan = plan_configs(
        _PLATFORM, spec, configs, states, objective="makespan", chunk_size=1
    )
    assert plan.report.n_simulated == 1
    assert plan.report.n_pruned == len(configs) - 1
    assert plan.winner == configs[0].letters


def test_plan_resolves_cache_hits_without_simulating(tmp_path):
    from repro.cache import ExperimentCache

    spec, states, configs = _tiny_case()
    cpu_caps = PAPER_CPU_CAPS[_PLATFORM]
    warm = ExperimentCache(tmp_path, fingerprint="t")
    run_config_set(_PLATFORM, spec, configs, states, cpu_caps=cpu_caps, cache=warm)
    cache = ExperimentCache(tmp_path, fingerprint="t")
    plan = plan_configs(
        _PLATFORM, spec, configs, states, cpu_caps=cpu_caps, cache=cache
    )
    assert plan.report.n_cache_hits == len(configs)
    assert plan.report.n_simulated == 0
    winner, metrics = _exhaustive_best(
        _PLATFORM, spec, configs, states, "efficiency", cpu_caps
    )
    assert (plan.winner, plan.metrics) == (winner, metrics)


def test_best_config_wrapper_delegates():
    spec, states, configs = _tiny_case()
    plan = best_config(
        _PLATFORM, spec, configs, states, cpu_caps=PAPER_CPU_CAPS[_PLATFORM]
    )
    winner, metrics = _exhaustive_best(
        _PLATFORM, spec, configs, states, "efficiency", PAPER_CPU_CAPS[_PLATFORM]
    )
    assert (plan.winner, plan.metrics) == (winner, metrics)


# -------------------------------------------------------------- bound checks


@pytest.mark.parametrize("op", ["gemm", "potrf"])
def test_bounds_sound_on_tiny_grid(op):
    spec, states, configs = _tiny_case(op)
    cpu_caps = PAPER_CPU_CAPS[_PLATFORM]
    model = OperationModel(_PLATFORM, spec, states, cpu_caps)
    estimates = model.estimate(configs)
    metrics = run_config_set(_PLATFORM, spec, configs, states, cpu_caps=cpu_caps)
    for config in configs:
        t_est, e_est = estimates[config.letters]
        m = metrics[config.letters]
        assert t_est / MAKESPAN_SLACK <= m.makespan_s <= t_est * MAKESPAN_SLACK
        assert e_est / ENERGY_SLACK <= m.energy_j <= e_est * ENERGY_SLACK


def test_audit_plan_reports_sound_bounds():
    spec, states, configs = _tiny_case()
    cpu_caps = PAPER_CPU_CAPS[_PLATFORM]
    plan = plan_configs(
        _PLATFORM, spec, configs, states, objective="makespan", cpu_caps=cpu_caps
    )
    audit = audit_plan(plan, _PLATFORM, spec, states, cpu_caps=cpu_caps, sample=5)
    assert audit["n_sampled"] == min(5, audit["n_pruned"])
    assert audit["bounds_sound"] is True
    assert audit["beaten_by"] == []


# ------------------------------------------------------------- ladder scans


def test_best_ladder_under_budget_matches_inline_scan():
    from repro.cluster.farm import FarmGPU, GPUFarm
    from repro.kernels.gemm import GemmKernel

    platform = "32-AMD-4-A100"
    states = CapStates(h_w=400.0, b_w=216.0, l_w=100.0)
    kernel = GemmKernel.square(5760, "double")
    for budget in (420.0, 800.0, 1200.0, 1600.0):
        got = best_ladder_under_budget(platform, kernel, states, budget)
        # The historical in-line loop, verbatim.
        farm = GPUFarm([FarmGPU("A100-SXM4-40GB", kernel) for _ in range(4)])
        best = None
        best_eff = -1.0
        for config in standard_configs(4):
            watts = config.watts(states)
            if sum(watts) > budget + 1e-6:
                continue
            eff = farm.total_efficiency(watts)
            if eff > best_eff:
                best, best_eff = (config, watts), eff
        assert got == best


def test_best_ladder_under_budget_infeasible():
    from repro.kernels.gemm import GemmKernel

    states = CapStates(h_w=400.0, b_w=216.0, l_w=100.0)
    with pytest.raises(ValueError):
        best_ladder_under_budget(
            "32-AMD-4-A100", GemmKernel.square(5760, "double"), states, 10.0
        )


# ------------------------------------------------- simulations eliminated


@pytest.fixture
def count_simulators(monkeypatch):
    """Count every :class:`repro.sim.Simulator` construction."""
    import repro.sim as sim_mod

    counter = {"n": 0}
    real_init = sim_mod.Simulator.__init__

    def counting_init(self, *args, **kwargs):
        counter["n"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(sim_mod.Simulator, "__init__", counting_init)
    return counter


def test_planner_pipeline_runs_five_times_fewer_simulations(count_simulators):
    """The catalog sweeps and the Figs. 3/4 tiny config scans, old vs new.

    The old pipeline simulated one kernel per sweep cap point and one run
    per configuration.  The analytic sweep builds no Simulator at all and
    the planner simulates only possible winners, yet both answer
    byte-identically to the exhaustive pipeline.
    """
    combos = [
        (model, precision)
        for model in sorted(gpu_models())
        for precision in ("double", "single")
    ]
    analytic = [sweep_gemm(m, 2880, p) for m, p in combos]
    assert count_simulators["n"] == 0
    simulated = [simulated_sweep_gemm(m, 2880, p) for m, p in combos]
    assert analytic == simulated

    exhaustive_sims = sum(len(points) for points in simulated)
    planner_sims = 0
    cpu_caps = PAPER_CPU_CAPS[_PLATFORM]
    for op in ("gemm", "potrf"):
        spec, states, configs = _tiny_case(op)
        plan = plan_configs(_PLATFORM, spec, configs, states, cpu_caps=cpu_caps)
        winner, metrics = _exhaustive_best(
            _PLATFORM, spec, configs, states, "efficiency", cpu_caps
        )
        assert (plan.winner, plan.metrics) == (winner, metrics)
        exhaustive_sims += len(configs)
        planner_sims += plan.report.n_simulated

    assert exhaustive_sims >= 5 * planner_sims


def test_plan_full_h100_ladder_matches_exhaustive():
    """The widest grid the repo can pose: all 3^4 configs on 4xH100."""
    platform, model = "32-AMD-4-H100", "H100-SXM5-80GB"
    spec = OperationSpec(op="gemm", n=4 * 1440, nb=1440, precision="double")
    gpu = gpu_spec(model)
    states = CapStates(
        h_w=gpu.cap_max_w,
        b_w=best_cap_watts(model, "double", spec.nb),
        l_w=gpu.cap_min_w,
    )
    configs = [CapConfig("".join(p)) for p in itertools.product("HBL", repeat=4)]
    plan = plan_configs(platform, spec, configs, states)
    winner, metrics = _exhaustive_best(
        platform, spec, configs, states, "efficiency", None
    )
    assert (plan.winner, plan.metrics) == (winner, metrics)
