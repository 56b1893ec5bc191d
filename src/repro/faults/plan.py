"""Fault plans: a deterministic schedule of things going wrong.

A :class:`FaultPlan` is an ordered set of :class:`FaultSpec` entries, each
naming a fault kind, an injection time, a target resource and kind-specific
parameters.  Plans serialise to JSON (``repro run --plan file.json``) and
come in two time bases:

- **absolute** — ``time``/``duration`` are simulated seconds;
- **relative** (``relative=True``) — ``time``/``duration`` are fractions of
  a reference makespan; :meth:`FaultPlan.resolve` converts to absolute
  using the fault-free baseline's makespan, so one preset stresses the same
  *phase* of the run on every platform and scale.

Fault taxonomy (``target`` conventions in parentheses):

===================  =========================================================
``cap-set-error``    the next ``magnitude`` cap-set attempts on a GPU fail
                     with a transient driver error (``gpuN``)
``cap-silent-clamp`` cap-set requests during the window are silently clamped
                     to ``magnitude`` x requested watts (``gpuN``)
``gpu-throttle``     thermal throttle: the device runs as if capped at
                     ``magnitude`` x its configured cap for ``duration``
                     seconds, while NVML keeps reporting the configured cap
                     (``gpuN``)
``worker-kill``      the worker dies at ``time``; revives after ``duration``
                     seconds, or never when ``duration == 0`` (worker name,
                     e.g. ``gpu-w0``)
``worker-hang``      the task running on the worker at ``time`` takes
                     ``duration`` extra seconds to complete (worker name)
``meter-dropout``    the power sampler records nothing during the window
                     (target ignored)
``transfer-stall``   the GPU's host link accepts no new transfers for
                     ``duration`` seconds (``gpuN``)
===================  =========================================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

FAULT_KINDS = (
    "cap-set-error",
    "cap-silent-clamp",
    "gpu-throttle",
    "worker-kill",
    "worker-hang",
    "meter-dropout",
    "transfer-stall",
)

#: Kinds whose window/extra length is mandatory.
_NEEDS_DURATION = {"gpu-throttle", "worker-hang", "meter-dropout", "transfer-stall"}

#: Kinds whose magnitude is a fraction in (0, 1].
_FRACTION_MAGNITUDE = {"cap-silent-clamp", "gpu-throttle"}


class FaultPlanError(ValueError):
    """Raised for malformed fault specs or plans."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    kind: str
    time: float
    target: str = ""
    duration: float = 0.0
    magnitude: float = 0.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        for name in ("time", "duration", "magnitude"):
            if not math.isfinite(getattr(self, name)):
                raise FaultPlanError(
                    f"{self.kind}: {name} must be finite, got {getattr(self, name)}"
                )
        if self.time < 0:
            raise FaultPlanError(f"{self.kind}: negative injection time {self.time}")
        if self.duration < 0:
            raise FaultPlanError(f"{self.kind}: negative duration {self.duration}")
        if self.kind in _NEEDS_DURATION and self.duration == 0:
            raise FaultPlanError(f"{self.kind}: duration must be > 0")
        if self.kind in _FRACTION_MAGNITUDE and not 0 < self.magnitude <= 1:
            raise FaultPlanError(
                f"{self.kind}: magnitude {self.magnitude} must be a fraction in (0, 1]"
            )
        if self.kind == "cap-set-error" and self.magnitude < 1:
            raise FaultPlanError(
                f"{self.kind}: magnitude is the forced-failure count, must be >= 1"
            )
        if self.kind.startswith("worker-") and not self.target:
            raise FaultPlanError(f"{self.kind}: target worker name required")

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "time": self.time,
            "target": self.target,
            "duration": self.duration,
            "magnitude": self.magnitude,
            "label": self.label,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "FaultSpec":
        if not isinstance(rec, dict):
            raise FaultPlanError(
                f"a fault must be a JSON object, got {type(rec).__name__}"
            )
        for name in ("kind", "time"):
            if name not in rec:
                raise FaultPlanError(f"missing required field {name!r}")
        return cls(
            kind=rec["kind"],
            time=_number(rec, "time"),
            target=rec.get("target", ""),
            duration=_number(rec, "duration"),
            magnitude=_number(rec, "magnitude"),
            label=rec.get("label", ""),
        )


def _number(rec: dict, name: str) -> float:
    value = rec.get(name, 0.0)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise FaultPlanError(
            f"field {name!r} must be a number, got {value!r}"
        ) from None


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, serialisable fault schedule."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0
    relative: bool = False
    name: str = ""
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def by_kind(self, kind: str) -> list[FaultSpec]:
        return [f for f in self.faults if f.kind == kind]

    def resolve(self, makespan_s: float) -> "FaultPlan":
        """Return an absolute-time plan.

        Relative plans scale ``time`` and ``duration`` by ``makespan_s``
        (the fault-free baseline makespan, which is itself deterministic);
        absolute plans are returned unchanged.
        """
        if not self.relative:
            return self
        if makespan_s <= 0:
            raise FaultPlanError(f"reference makespan must be > 0, got {makespan_s}")
        scaled = tuple(
            replace(f, time=f.time * makespan_s, duration=f.duration * makespan_s)
            for f in self.faults
        )
        return FaultPlan(
            faults=scaled, seed=self.seed, relative=False, name=self.name,
            extra=dict(self.extra),
        )

    def dropout_windows(self) -> list[tuple[float, float]]:
        """``(start, end)`` power-sample blackout windows of the plan."""
        return [
            (f.time, f.time + f.duration) for f in self.by_kind("meter-dropout")
        ]

    # --------------------------------------------------------------------- io

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "seed": self.seed,
                "relative": self.relative,
                "faults": [f.to_record() for f in self.faults],
            },
            indent=2,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan; any malformed input raises :class:`FaultPlanError`."""
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(doc).__name__}"
            )
        records = doc.get("faults", [])
        if not isinstance(records, list):
            raise FaultPlanError("field 'faults' must be a list")
        faults = []
        for i, rec in enumerate(records):
            try:
                faults.append(FaultSpec.from_record(rec))
            except FaultPlanError as exc:
                raise FaultPlanError(f"faults[{i}]: {exc}") from None
        try:
            seed = int(doc.get("seed", 0))
        except (TypeError, ValueError, OverflowError):
            raise FaultPlanError(
                f"field 'seed' must be an integer, got {doc['seed']!r}"
            ) from None
        return cls(
            faults=tuple(faults),
            seed=seed,
            relative=bool(doc.get("relative", False)),
            name=doc.get("name", ""),
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())


# ------------------------------------------------------------------- presets

#: Named relative plans; targets follow the simulator's naming scheme
#: (``gpuN`` devices, ``gpu-wN`` GPU workers) and exist on every platform in
#: the catalog (all have >= 2 GPUs).
_PRESETS: dict[str, tuple[FaultSpec, ...]] = {
    "none": (),
    # The acceptance scenario: one GPU worker dies for good mid-run while
    # the other GPU silently throttles to ~60 % of its configured cap.
    "kill-throttle": (
        FaultSpec("worker-kill", time=0.35, target="gpu-w0"),
        FaultSpec("gpu-throttle", time=0.25, target="gpu1",
                  duration=0.45, magnitude=0.6),
    ),
    # Setup-time driver trouble: the first cap-set on gpu0 fails twice
    # (retry survives it), and gpu1's cap is silently clamped to 80 % of
    # the request (verify-after-set catches it).
    "flaky-driver": (
        FaultSpec("cap-set-error", time=0.0, target="gpu0", magnitude=2),
        FaultSpec("cap-silent-clamp", time=0.0, target="gpu1",
                  duration=1.0, magnitude=0.8),
    ),
    # A GPU worker's kernel hangs mid-run; the watchdog must detect it,
    # retry the task elsewhere and quarantine/probe the worker.
    "hang": (
        FaultSpec("worker-hang", time=0.4, target="gpu-w1", duration=0.6),
    ),
    # Measurement-layer noise: a power-meter blackout plus a transfer stall.
    "blackout": (
        FaultSpec("meter-dropout", time=0.3, duration=0.2),
        FaultSpec("transfer-stall", time=0.5, target="gpu0", duration=0.05),
    ),
    # A transient death: the worker revives and is probed back in.
    "brownout": (
        FaultSpec("worker-kill", time=0.3, target="gpu-w1", duration=0.25),
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_plan(name: str, seed: int = 0) -> FaultPlan:
    """A named relative plan (see :data:`PRESET_NAMES`)."""
    try:
        faults = _PRESETS[name]
    except KeyError:
        raise FaultPlanError(
            f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}"
        ) from None
    return FaultPlan(faults=faults, seed=seed, relative=True, name=name)


def random_plan(
    seed: int,
    n_faults: int = 4,
    n_gpus: int = 2,
    kinds: Optional[tuple[str, ...]] = None,
) -> FaultPlan:
    """A seeded random relative plan (property-style chaos testing).

    Only mid-run fault kinds are drawn (cap-set faults act at setup time and
    are better expressed explicitly).  Times land in [0.1, 0.8) of the
    baseline makespan so every fault hits a busy run.
    """
    if kinds is None:
        kinds = ("gpu-throttle", "worker-kill", "worker-hang",
                 "meter-dropout", "transfer-stall")
    bad = set(kinds) - set(FAULT_KINDS)
    if bad:
        raise FaultPlanError(f"unknown kinds {sorted(bad)}")
    rng = np.random.default_rng(seed)
    faults = []
    for _ in range(n_faults):
        kind = kinds[int(rng.integers(len(kinds)))]
        time = float(rng.uniform(0.1, 0.8))
        duration = float(rng.uniform(0.05, 0.3))
        gpu = int(rng.integers(n_gpus))
        if kind == "worker-kill":
            # Transient deaths only: a random plan must never kill every
            # worker capable of a kernel for good.
            faults.append(FaultSpec(kind, time, f"gpu-w{gpu}", duration=duration))
        elif kind == "worker-hang":
            faults.append(FaultSpec(kind, time, f"gpu-w{gpu}", duration=duration))
        elif kind == "gpu-throttle":
            frac = float(rng.uniform(0.4, 0.8))
            faults.append(
                FaultSpec(kind, time, f"gpu{gpu}", duration=duration, magnitude=frac)
            )
        elif kind == "meter-dropout":
            faults.append(FaultSpec(kind, time, duration=duration))
        else:  # transfer-stall
            faults.append(
                FaultSpec(kind, time, f"gpu{gpu}", duration=duration * 0.2)
            )
    return FaultPlan(
        faults=tuple(faults), seed=seed, relative=True, name=f"random-{seed}"
    )
