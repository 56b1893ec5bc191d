"""Advise request schema: strict validation at the service boundary.

Everything a request can say is normalised here, before any cache key is
built: strings are checked against the catalogs, floats go through
:func:`repro.cache.canonical_number` (which canonicalises ``-0.0`` and
rejects NaN/Infinity with a message naming the field), unknown fields are
errors.  The payoff is twofold — a malformed request becomes a **400** with
a usable message instead of a 500 from the no-NaN JSON encoder deep inside
the key layer, and two requests that mean the same thing always coalesce
onto the same in-flight computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.boundary import bounded_repr
from repro.cache.keys import canonical_number
from repro.core.capconfig import CapConfig
from repro.core.tradeoff import OPERATIONS
from repro.experiments.platforms import TABLE2_PAPER
from repro.experiments.runner import SCALES
from repro.hardware.catalog import PLATFORMS
from repro.runtime import SCHEDULERS

#: Objectives the advisor can optimise.  ``efficiency``/``gflops`` maximise,
#: the rest minimise; ``edp``/``ed2p`` are the energy-delay products of
#: Patrou et al. (arXiv 2505.21758); ``weighted`` minimises a normalised
#: energy/time blend against the all-H default.
OBJECTIVES = ("efficiency", "gflops", "energy", "makespan", "edp", "ed2p", "weighted")

#: Keys :data:`OBJECTIVES`' ``weighted`` blend accepts.
WEIGHT_KEYS = ("energy", "time")

_ALLOWED_FIELDS = frozenset({
    "platform", "op", "precision", "scale", "scheduler", "seed",
    "objective", "weights", "energy_budget_j", "configs", "cpu_caps",
})


class ValidationError(ValueError):
    """A request the service must answer with 400, never a traceback."""


@dataclass(frozen=True)
class AdviseRequest:
    """One validated, normalised advise query (hashable, picklable)."""

    platform: str
    op: str
    precision: str
    scale: str
    scheduler: str
    seed: int
    objective: str
    weights: Optional[tuple[tuple[str, float], ...]]
    energy_budget_j: Optional[float]
    configs: Optional[tuple[str, ...]]
    cpu_caps: Optional[tuple[tuple[int, float], ...]]

    def weights_dict(self) -> dict[str, float]:
        return dict(self.weights) if self.weights else {}

    def cpu_caps_dict(self) -> dict[int, float]:
        return dict(self.cpu_caps) if self.cpu_caps else {}

    def doc(self) -> dict:
        """The canonical JSON document of this request.

        Equal requests produce equal documents regardless of the field
        order or float spelling of the original JSON — this document is
        what the advise cache key and the coalescer key are built from,
        and it is echoed back in the response for provenance.
        """
        return {
            "platform": self.platform,
            "op": self.op,
            "precision": self.precision,
            "scale": self.scale,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "objective": self.objective,
            "weights": dict(self.weights) if self.weights is not None else None,
            "energy_budget_j": self.energy_budget_j,
            "configs": list(self.configs) if self.configs is not None else None,
            "cpu_caps": (
                {str(pkg): w for pkg, w in self.cpu_caps}
                if self.cpu_caps is not None else None
            ),
        }


def _require_str(doc: Mapping, field: str, default: str, allowed) -> str:
    value = doc.get(field, default)
    if not isinstance(value, str):
        raise ValidationError(f"{field} must be a string, got {bounded_repr(value)}")
    if value not in allowed:
        raise ValidationError(
            f"unknown {field} {bounded_repr(value)}; have {sorted(allowed)}"
        )
    return value


def _finite(value, field: str) -> float:
    """Boundary float: ``-0.0`` canonicalised, non-finite -> 400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field} must be a number, got {bounded_repr(value)}")
    try:
        return canonical_number(value, field)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def parse_advise_request(doc: object) -> AdviseRequest:
    """Validate a decoded JSON body into an :class:`AdviseRequest`.

    Raises :class:`ValidationError` (HTTP 400) on any problem; a request
    that parses is guaranteed to survive cache-key encoding and to name
    only platforms, operations, schedulers and cap states that exist.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"request body must be a JSON object, got "
                              f"{type(doc).__name__}")
    unknown = set(doc) - _ALLOWED_FIELDS
    if unknown:
        raise ValidationError(
            f"unknown fields {bounded_repr(sorted(unknown))}; "
            f"allowed: {sorted(_ALLOWED_FIELDS)}"
        )

    if "platform" not in doc:
        raise ValidationError("missing required field 'platform'")
    platform = _require_str(doc, "platform", "", PLATFORMS)
    op = _require_str(doc, "op", "gemm", OPERATIONS)
    precision = _require_str(doc, "precision", "double", ("single", "double"))
    scale = _require_str(doc, "scale", "small", SCALES)
    scheduler = _require_str(doc, "scheduler", "dmdas", SCHEDULERS)
    if (platform, op, precision) not in TABLE2_PAPER:
        raise ValidationError(
            f"no Table II operation instance for ({platform}, {op}, {precision})"
        )

    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"seed must be an integer, got {bounded_repr(seed)}")

    objective, weights = _parse_objective(doc)

    budget = doc.get("energy_budget_j")
    if budget is not None:
        budget = _finite(budget, "energy_budget_j")
        if budget < 0:
            raise ValidationError(
                f"energy_budget_j must be non-negative, got {budget!r}"
            )

    configs = _parse_configs(doc.get("configs"), PLATFORMS[platform].n_gpus)
    cpu_caps = _parse_cpu_caps(doc.get("cpu_caps"))

    return AdviseRequest(
        platform=platform, op=op, precision=precision, scale=scale,
        scheduler=scheduler, seed=seed, objective=objective, weights=weights,
        energy_budget_j=budget, configs=configs, cpu_caps=cpu_caps,
    )


def _parse_objective(doc: Mapping):
    objective = doc.get("objective", "efficiency")
    if not isinstance(objective, str) or objective not in OBJECTIVES:
        raise ValidationError(
            f"unknown objective {bounded_repr(objective)}; have {list(OBJECTIVES)}"
        )
    raw = doc.get("weights")
    if objective != "weighted":
        if raw is not None:
            raise ValidationError(
                f"weights only apply to objective 'weighted', not {objective!r}"
            )
        return objective, None
    if not isinstance(raw, dict) or not raw:
        raise ValidationError(
            "objective 'weighted' needs weights, e.g. "
            '{"energy": 0.5, "time": 0.5}'
        )
    unknown = set(raw) - set(WEIGHT_KEYS)
    if unknown:
        raise ValidationError(
            f"unknown weight keys {bounded_repr(sorted(unknown))}; "
            f"allowed: {list(WEIGHT_KEYS)}"
        )
    weights = tuple(
        (key, _finite(raw[key], f"weights[{key}]"))
        for key in WEIGHT_KEYS if key in raw
    )
    if any(w < 0 for _, w in weights):
        raise ValidationError("weights must be non-negative")
    if all(w == 0 for _, w in weights):
        raise ValidationError("at least one weight must be positive")
    return objective, weights


def _parse_configs(raw, n_gpus: int) -> Optional[tuple[str, ...]]:
    if raw is None:
        return None
    if not isinstance(raw, list) or not raw:
        raise ValidationError("configs must be a non-empty list of cap strings")
    out: list[str] = []
    for item in raw:
        if not isinstance(item, str):
            raise ValidationError(
                f"configs entries must be strings, got {bounded_repr(item)}"
            )
        try:
            config = CapConfig(item.upper())
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        if config.n_gpus != n_gpus:
            raise ValidationError(
                f"config {bounded_repr(config.letters)} has {config.n_gpus} states for a "
                f"{n_gpus}-GPU platform"
            )
        if config.letters not in out:
            out.append(config.letters)
    return tuple(out)


def _parse_cpu_caps(raw) -> Optional[tuple[tuple[int, float], ...]]:
    if raw is None:
        return None
    if not isinstance(raw, dict) or not raw:
        raise ValidationError(
            'cpu_caps must be a non-empty object like {"1": 60.0}'
        )
    caps: list[tuple[int, float]] = []
    for pkg, watts in raw.items():
        try:
            idx = int(pkg)
        except (TypeError, ValueError):
            raise ValidationError(
                f"cpu_caps package {bounded_repr(pkg)} is not an integer index"
            ) from None
        w = _finite(watts, f"cpu_caps[{pkg}]")
        if w <= 0:
            raise ValidationError(f"cpu_caps[{pkg}] must be positive, got {w!r}")
        caps.append((idx, w))
    return tuple(sorted(caps))
