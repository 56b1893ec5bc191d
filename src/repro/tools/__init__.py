"""Observability tooling: power sampling and trace export."""

from repro.tools.chrometrace import to_chrome_trace
from repro.tools.powertrace import PowerSample, PowerSampler

__all__ = ["to_chrome_trace", "PowerSample", "PowerSampler"]
