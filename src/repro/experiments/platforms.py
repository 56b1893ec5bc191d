"""Table II: operation parameters and cap states per platform.

The paper's Table II fixes, for every (platform, operation, precision):
the matrix size N, the tile size Nt, and the three cap states —
``H`` = hardware maximum, ``L`` = hardware minimum, and ``B`` = the
best-efficiency cap found by sweeping a tile-sized GEMM (Sec. IV-C).

We re-derive ``B`` with the same sweep procedure on the simulated GPUs
(cached per (model, precision, nb)); the paper's reported percentages are
kept alongside for the Table II comparison output.
"""

from __future__ import annotations

from typing import Optional

from repro.core.bestcap import best_cap_watts
from repro.core.capconfig import CapConfig, CapStates, standard_configs
from repro.core.tradeoff import OperationSpec
from repro.experiments.runner import check_scale
from repro.hardware.catalog import gpu_spec, platform_spec

#: Paper Table II rows: (platform, op, precision) ->
#: (N, Nt, paper P_best as % of TDP).
TABLE2_PAPER = {
    ("24-Intel-2-V100", "gemm", "double"): (43200, 2880, 62),
    ("24-Intel-2-V100", "gemm", "single"): (43200, 2880, 60),
    ("24-Intel-2-V100", "potrf", "double"): (96000, 1920, 56),
    ("24-Intel-2-V100", "potrf", "single"): (96000, 1920, 66),
    ("64-AMD-2-A100", "gemm", "double"): (69120, 5760, 78),
    ("64-AMD-2-A100", "gemm", "single"): (69120, 5760, 60),
    ("64-AMD-2-A100", "potrf", "double"): (115200, 2880, 78),
    ("64-AMD-2-A100", "potrf", "single"): (115200, 2880, 60),
    ("32-AMD-4-A100", "gemm", "double"): (74880, 5760, 54),
    ("32-AMD-4-A100", "gemm", "single"): (74880, 5760, 40),
    ("32-AMD-4-A100", "potrf", "double"): (172800, 2880, 52),
    ("32-AMD-4-A100", "potrf", "single"): (172800, 2880, 38),
}

#: Tile counts per scale (the paper's own nt comes from Table II).
_SCALE_NT = {
    "tiny": {"gemm": 4, "potrf": 8},
    "small": {"gemm": 10, "potrf": 28},
}

#: The paper applies the Fig. 6 CPU cap (package 1 at 60 W) on the Intel
#: platform for the Figs. 3/4/7 numbers (see the Fig. 6 caption).
PAPER_CPU_CAPS = {
    "24-Intel-2-V100": {1: 60.0},
    "64-AMD-2-A100": None,  # AMD RAPL capping unavailable to the authors
    "32-AMD-4-A100": None,
}


def operation_spec(platform: str, op: str, precision: str, scale: str = "small") -> OperationSpec:
    """Table II operation instance, possibly scaled down."""
    check_scale(scale)
    n, nb, _ = TABLE2_PAPER[(platform, op, precision)]
    if scale != "paper":
        n = nb * _SCALE_NT[scale][op]
    return OperationSpec(op=op, n=n, nb=nb, precision=precision)


#: In-process memo for :func:`derived_best_cap_w`, used only when no disk
#: cache is supplied — with one, the underlying sweep is memoised on disk
#: instead, so repeated CLI invocations get real cache hits.
_BEST_CAP_MEMO: dict[tuple[str, str, int], float] = {}


def derived_best_cap_w(
    model: str,
    precision: str,
    nb: int,
    cache: Optional["ExperimentCache"] = None,
) -> float:
    """``P_best`` derived by our own tile-GEMM sweep (memoised)."""
    if cache is not None:
        return best_cap_watts(model, precision, nb, cache=cache)
    memo_key = (model, precision, nb)
    if memo_key not in _BEST_CAP_MEMO:
        _BEST_CAP_MEMO[memo_key] = best_cap_watts(model, precision, nb)
    return _BEST_CAP_MEMO[memo_key]


def cap_states(
    platform: str,
    op: str,
    precision: str,
    scale: str = "small",
    cache: Optional["ExperimentCache"] = None,
) -> CapStates:
    """The H/B/L watt values for one Table II row."""
    spec = gpu_spec(platform_spec(platform).gpu_model)
    op_spec = operation_spec(platform, op, precision, scale)
    b = derived_best_cap_w(spec.model, precision, op_spec.nb, cache=cache)
    return CapStates(h_w=spec.cap_max_w, b_w=b, l_w=spec.cap_min_w)


def config_list(platform: str) -> list[CapConfig]:
    """The Figs. 3/4 configuration ladder for this platform's GPU count."""
    return standard_configs(platform_spec(platform).n_gpus)
