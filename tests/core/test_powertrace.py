"""Focused PowerSampler tests: cadence, drain stop, energy consistency."""

import pytest

from repro.hardware.catalog import build_platform
from repro.linalg import assign_priorities, gemm_graph
from repro.runtime import RuntimeSystem
from repro.sim import Simulator
from repro.tools import PowerSampler
from repro.tools.chrometrace import change_points

PERIOD = 0.002


class EnergySnapshotSampler(PowerSampler):
    """PowerSampler that also reads the device energy counters each tick,
    so power integration can be checked against the exact accounting over
    the same window."""

    def _tick(self):
        if not hasattr(self, "energy_snapshots"):
            self.energy_snapshots = []
        super()._tick()
        self.energy_snapshots.append(self.node.device_energies_j())


@pytest.fixture(scope="module")
def sampled_run():
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    rt = RuntimeSystem(node, scheduler="dmdas", seed=1)
    graph, *_ = gemm_graph(1440 * 5, 1440, "double")
    assign_priorities(graph)
    sampler = EnergySnapshotSampler(node, rt, period_s=PERIOD)
    sampler.start()
    result = rt.run(graph)
    return node, sampler, result


def test_tick_cadence_is_exactly_periodic(sampled_run):
    _, sampler, _ = sampled_run
    times = [s.time_s for s in sampler.samples]
    assert times[0] == 0.0
    for i, t in enumerate(times):
        assert t == pytest.approx(i * PERIOD)


def test_sampler_stops_after_drain(sampled_run):
    _, sampler, result = sampled_run
    # The sampler re-arms while tasks are pending; the tick that sees the
    # queue drained is the last.  (The run's makespan may extend further —
    # post-compute writeback — but the sampler must not tick forever.)
    last = sampler.samples[-1].time_s
    assert last <= result.makespan_s
    assert len(sampler.samples) == round(last / PERIOD) + 1


def test_sampled_energy_matches_device_accounting(sampled_run):
    """Riemann-summing the power timeline reproduces each device's energy
    counter over the sampled window; the sampler reads the same models the
    energy accounting integrates exactly."""
    _, sampler, _ = sampled_run
    first, last = sampler.energy_snapshots[0], sampler.energy_snapshots[-1]
    for device in sampler.devices():
        series = sampler.series(device)
        integrated = sum(
            v * (t1 - t0)
            for (t0, v), (t1, _) in zip(series, series[1:])
        )
        metered = last[device] - first[device]
        assert integrated == pytest.approx(metered, rel=0.1, abs=0.5)


def test_total_energy_integration(sampled_run):
    _, sampler, _ = sampled_run
    integrated = sum(s.total_w * PERIOD for s in sampler.samples[:-1])
    metered = sum(sampler.energy_snapshots[-1].values()) - sum(
        sampler.energy_snapshots[0].values()
    )
    assert integrated == pytest.approx(metered, rel=0.1)


def test_to_records_shape(sampled_run):
    _, sampler, _ = sampled_run
    recs = sampler.to_records()
    assert len(recs) == len(sampler.samples)
    first = recs[0]
    assert first["time_s"] == 0.0
    assert first["total_w"] == pytest.approx(
        sum(v for k, v in first.items() if k not in ("time_s", "total_w"))
    )


def test_counter_tracks_cover_devices(sampled_run):
    _, sampler, _ = sampled_run
    tracks = {t.name: t for t in sampler.counter_tracks()}
    assert set(tracks) == {f"power {d}" for d in sampler.devices()}
    track = tracks["power gpu0"]
    assert track.unit == "W"
    # The draw's change points, spanning every sample's time.
    assert (list(track.times), list(track.values)) == change_points(
        [s.time_s for s in sampler.samples],
        [s.device_w["gpu0"] for s in sampler.samples])
    assert track.times[-1] == sampler.samples[-1].time_s
    assert len(set(track.values)) > 1


def test_empty_sampler_views():
    sim = Simulator()
    node = build_platform("24-Intel-2-V100", sim)
    rt = RuntimeSystem(node, seed=0)
    sampler = PowerSampler(node, rt)
    assert sampler.devices() == []
    assert sampler.to_records() == []
    assert sampler.counter_tracks() == []
