"""The pynvml-style API surface (module-level functions, integer units).

NVML talks in milliwatts (power, limits) and millijoules (energy).  Handles
are opaque; here they wrap the simulated device.  Each thread holds one
bound node at a time: pynvml's initialisation is process-global, but
simulations running on concurrent threads (the advisor's shards) each
drive their own node and must never read another's devices.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.hardware.gpu import CapSetFailure, GPUDevice, PowerLimitError
from repro.hardware.node import Node

NVML_ERROR_UNINITIALIZED = 1
NVML_ERROR_INVALID_ARGUMENT = 2
NVML_ERROR_NOT_SUPPORTED = 3
NVML_ERROR_UNKNOWN = 999


class NVMLError(RuntimeError):
    """NVML-style error carrying a numeric code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.value = code


@dataclass(frozen=True)
class _Handle:
    device: GPUDevice


class _Binding(threading.local):
    node: Optional[Node] = None


_bound = _Binding()


def nvmlInit(node: Node) -> None:
    """Bind this thread's NVML to a simulated node (the 'driver attach')."""
    _bound.node = node


def nvmlShutdown() -> None:
    _bound.node = None


def _require_node() -> Node:
    node = _bound.node
    if node is None:
        raise NVMLError(NVML_ERROR_UNINITIALIZED, "call nvmlInit(node) first")
    return node


def nvmlDeviceGetCount() -> int:
    return len(_require_node().gpus)


def nvmlDeviceGetHandleByIndex(index: int) -> _Handle:
    node = _require_node()
    if not 0 <= index < len(node.gpus):
        raise NVMLError(NVML_ERROR_INVALID_ARGUMENT, f"no GPU at index {index}")
    return _Handle(node.gpus[index])


def nvmlDeviceGetName(handle: _Handle) -> str:
    return handle.device.spec.model


def nvmlDeviceGetPowerManagementLimitConstraints(handle: _Handle) -> tuple[int, int]:
    """(min, max) enforceable power limit in milliwatts."""
    spec = handle.device.spec
    return int(spec.cap_min_w * 1000), int(spec.cap_max_w * 1000)


def nvmlDeviceGetPowerManagementDefaultLimit(handle: _Handle) -> int:
    """Factory default limit (TDP) in milliwatts."""
    return int(handle.device.spec.tdp_w * 1000)


def nvmlDeviceGetPowerManagementLimit(handle: _Handle) -> int:
    return int(round(handle.device.power_limit_w * 1000))


def nvmlDeviceSetPowerManagementLimit(handle: _Handle, limit_mw: int) -> None:
    try:
        handle.device.set_power_limit(limit_mw / 1000.0)
    except CapSetFailure as exc:
        # Transient driver failure, not a bad request: callers may retry
        # (see repro.faults.nvml_guard.set_power_limit_verified).
        raise NVMLError(NVML_ERROR_UNKNOWN, str(exc)) from exc
    except PowerLimitError as exc:
        raise NVMLError(NVML_ERROR_INVALID_ARGUMENT, str(exc)) from exc


def nvmlDeviceGetPowerUsage(handle: _Handle) -> int:
    """Instantaneous board draw in milliwatts."""
    return int(round(handle.device.power_w * 1000))


def nvmlDeviceGetTotalEnergyConsumption(handle: _Handle) -> int:
    """Cumulative board energy in millijoules since device init."""
    return int(round(handle.device.energy_j() * 1000))
