"""EXTENSION: dynamic power-cap governor (paper future work; cf. DEPO
[Krzywaniak et al.] in the paper's related work).

The governor tunes a GPU's cap online while a repetitive kernel runs: it
walks the cap in fixed steps in one direction as long as measured energy
efficiency keeps improving, reverses direction once when it stops improving,
and locks in when no direction helps (hill climbing with hysteresis).  On
the simulated devices it converges to the same ``P_best`` the offline sweep
of Sec. II finds, without needing the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sweep import measure_point
from repro.hardware.gpu import GPUDevice
from repro.kernels.gemm import GemmKernel
from repro.sim import Simulator

#: Relative efficiency loss below the best seen that stops a walk
#: (hysteresis): a smaller loss, or a gain, keeps the walk moving.
IMPROVEMENT_THRESHOLD = 0.002
#: Safety bound on tuning epochs.
MAX_EPOCHS = 200


@dataclass(frozen=True)
class GovernorStep:
    """One measurement epoch of the governor."""

    cap_w: float
    efficiency: float
    action: str  # "down", "up", "hold"


@dataclass
class DynamicCapGovernor:
    """Online hill-climbing cap tuner for one GPU.

    Each epoch runs one kernel instance through the sweep's
    :func:`~repro.core.sweep.measure_point` and reads its Gflop/s/W.

    Parameters
    ----------
    step_w:
        Cap adjustment per epoch (W).
    """

    gpu: GPUDevice
    sim: Simulator
    step_w: float = 10.0
    history: list[GovernorStep] = field(default_factory=list)

    def tune(self, kernel: GemmKernel) -> float:
        """Converge to the best cap for ``kernel``; returns the final cap.

        The walk *continues through flat regions* (caps above the kernel's
        actual draw change nothing) and only reverses/stops when efficiency
        drops by more than the threshold below the best seen — otherwise a
        cap far above the operating point would look like a dead end.
        """
        spec = self.gpu.spec
        cap = self.gpu.power_limit_w
        direction = -1.0  # start by lowering power (the common win)
        reversals = 0
        best_eff = measure_point(self.gpu, self.sim, kernel).efficiency
        best_cap = cap
        self.history.append(GovernorStep(cap, best_eff, "hold"))
        for _ in range(MAX_EPOCHS):
            candidate = min(spec.cap_max_w, max(spec.cap_min_w, cap + direction * self.step_w))
            if candidate == cap:  # hit a hardware bound
                if reversals >= 1:
                    break
                direction, reversals = -direction, reversals + 1
                continue
            self.gpu.set_power_limit(candidate)
            eff = measure_point(self.gpu, self.sim, kernel).efficiency
            if eff >= best_eff * (1.0 - IMPROVEMENT_THRESHOLD):
                # Improved or flat: keep walking.
                cap = candidate
                if eff > best_eff:
                    best_eff, best_cap = eff, cap
                self.history.append(
                    GovernorStep(cap, eff, "down" if direction < 0 else "up")
                )
            else:
                # Significant degradation: back to the best point, then try
                # the other direction once before locking in.
                cap = best_cap
                self.gpu.set_power_limit(cap)
                self.history.append(GovernorStep(candidate, eff, "hold"))
                if reversals >= 1:
                    break
                direction, reversals = -direction, reversals + 1
        self.gpu.set_power_limit(best_cap)
        return best_cap
