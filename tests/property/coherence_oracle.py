"""Test-only oracle: the set-based MSI coherence model.

This is the data layer as it was before replica state became a bitmask:
``valid_nodes`` is a Python ``set`` and ``owner`` a separate field.  It is
kept, unoptimised, so that property tests can run the same random access
sequences through it and through :mod:`repro.runtime.data` and demand the
same replica states, ready times, link reservations and evictions.

One deliberate difference from the historical code: a write that makes
``target`` the sole replica drops the ``(hid, target)`` prefetch arrival, so
a replica revalidated by a write-only access does not inherit the arrival of
an earlier, evicted prefetch.  The production model has the same fix.

It shares :class:`~repro.runtime.data.MemoryManager` (through its public
``add``/``pin``/``unpin``/``touch`` methods only) and the platform's links.

:func:`check_invariants` states the MSI invariants of a production
:class:`~repro.runtime.data.DataHandle`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.hardware.node import MEM_HOST, Node
from repro.runtime.data import (
    MEMORY_HEADROOM,
    AccessMode,
    CoherenceError,
    DataHandle,
    MemoryManager,
)

_handle_ids = itertools.count()


def check_invariants(handle: DataHandle) -> None:
    """Raise :class:`CoherenceError` unless ``handle`` has a valid replica
    and, when dirty, exactly one."""
    v = handle.valid
    if not v:
        raise CoherenceError(f"{handle}: no valid replica anywhere")
    if handle.dirty and v & (v - 1):
        raise CoherenceError(f"{handle}: dirty but valid on {sorted(handle.valid_nodes)}")


@dataclass(eq=False)
class OracleHandle:
    nbytes: int
    label: str = ""
    home_node: int = MEM_HOST
    hid: int = field(default_factory=lambda: next(_handle_ids))
    valid_nodes: set[int] = field(default_factory=set)
    owner: Optional[int] = None  # node holding the sole dirty replica

    def __post_init__(self) -> None:
        if not self.valid_nodes:
            self.valid_nodes = {self.home_node}

    def __hash__(self) -> int:
        return self.hid

    def check_invariants(self) -> None:
        if not self.valid_nodes:
            raise CoherenceError(f"{self}: no valid replica anywhere")
        if self.owner is not None and self.valid_nodes != {self.owner}:
            raise CoherenceError(
                f"{self}: dirty on node {self.owner} but valid on {self.valid_nodes}"
            )


class OracleDataManager:
    def __init__(self, node: Node) -> None:
        self.node = node
        self.managers: dict[int, MemoryManager] = {
            node.mem_node_of_gpu(i): MemoryManager(
                node.mem_node_of_gpu(i),
                int(gpu.spec.memory_gb * 1e9 * MEMORY_HEADROOM),
            )
            for i, gpu in enumerate(node.gpus)
        }
        self.bytes_transferred = 0
        self.n_transfers = 0
        self._arrival: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------- estimates

    def transfer_estimate(
        self, handles: Sequence[tuple[OracleHandle, AccessMode]], target: int
    ) -> float:
        total = 0.0
        for handle, mode in handles:
            if not mode.reads or target in handle.valid_nodes:
                continue
            source = self._pick_source(handle)
            total += self._path_estimate(source, target, handle.nbytes)
        return total

    def transfer_estimates(
        self,
        handles: Sequence[tuple[OracleHandle, AccessMode]],
        targets: Sequence[int],
    ) -> dict[int, float]:
        totals = dict.fromkeys(targets, 0.0)
        for handle, mode in handles:
            if not mode.reads:
                continue
            missing = [t for t in targets if t not in handle.valid_nodes]
            if not missing:
                continue
            source = self._pick_source(handle)
            d2h = self._path_estimate(source, MEM_HOST, handle.nbytes)
            for t in missing:
                if t != MEM_HOST:
                    totals[t] += d2h + self._path_estimate(MEM_HOST, t, handle.nbytes)
                else:
                    totals[t] += d2h
        return totals

    def _path_estimate(self, source: int, target: int, nbytes: int) -> float:
        est = 0.0
        if source != MEM_HOST:
            est += self.node.link_of_mem_node(source).estimate(nbytes, "d2h")
        if target != MEM_HOST:
            est += self.node.link_of_mem_node(target).estimate(nbytes, "h2d")
        return est

    # ------------------------------------------------------------ operations

    def _pick_source(self, handle: OracleHandle) -> int:
        if handle.owner is not None:
            return handle.owner
        if MEM_HOST in handle.valid_nodes:
            return MEM_HOST
        return min(handle.valid_nodes)

    def acquire(
        self,
        handles: Iterable[tuple[OracleHandle, AccessMode]],
        target: int,
        now: float,
        label: str = "",
    ) -> float:
        ready = now
        mgr = self.managers[target] if target != MEM_HOST else None
        arrivals = self._arrival
        for handle, mode in handles:
            handle.check_invariants()
            if mgr is not None:
                for victim in mgr.add(handle):
                    self._evict(victim, target, label)
                mgr.pin(handle)
            if mode.reads and target not in handle.valid_nodes:
                fetched = self._fetch(handle, target, label, now)
                if fetched > ready:
                    ready = fetched
            elif target in handle.valid_nodes:
                arrival = arrivals.get((handle.hid, target))
                if arrival is not None:
                    if arrival > now:
                        if arrival > ready:
                            ready = arrival
                    else:
                        del arrivals[(handle.hid, target)]
                if mgr is not None:
                    mgr.touch(handle)
        return ready

    def prefetch(
        self,
        handles: Iterable[tuple[OracleHandle, AccessMode]],
        target: int,
        label: str = "",
    ) -> None:
        for handle, mode in handles:
            if not mode.reads or target in handle.valid_nodes:
                continue
            if target != MEM_HOST:
                mgr = self.managers[target]
                if handle.nbytes > mgr.capacity_bytes - mgr.pinned_bytes:
                    continue
                for victim in mgr.add(handle):
                    self._evict(victim, target, label)
            self._fetch(handle, target, f"pf:{label}")

    def _fetch(self, handle: OracleHandle, target: int, label: str, now: float = 0.0) -> float:
        source = self._pick_source(handle)
        end = 0.0
        if source != MEM_HOST and MEM_HOST not in handle.valid_nodes:
            link = self.node.link_of_mem_node(source)
            _, end = link.reserve(handle.nbytes, "d2h", label or handle.label, not_before=now)
            handle.valid_nodes.add(MEM_HOST)
            handle.owner = None
            self._account(handle.nbytes)
        if target != MEM_HOST:
            link = self.node.link_of_mem_node(target)
            _, end2 = link.reserve(
                handle.nbytes, "h2d", label or handle.label, not_before=max(now, end)
            )
            end = max(end, end2)
            self._account(handle.nbytes)
        handle.valid_nodes.add(target)
        if end > 0.0:
            self._arrival[(handle.hid, target)] = end
        if handle.owner is not None and handle.owner != target:
            handle.owner = None
        return end

    def _evict(self, victim: OracleHandle, node_id: int, label: str) -> None:
        if victim.owner == node_id:
            link = self.node.link_of_mem_node(node_id)
            link.reserve(victim.nbytes, "d2h", f"wb:{victim.label or label}")
            self._account(victim.nbytes)
            victim.owner = None
            victim.valid_nodes = {MEM_HOST}
        else:
            victim.valid_nodes.discard(node_id)
            if not victim.valid_nodes:
                raise CoherenceError(f"evicted sole replica of {victim}")

    def release(
        self,
        handles: Iterable[tuple[OracleHandle, AccessMode]],
        target: int,
    ) -> None:
        mgr = self.managers[target] if target != MEM_HOST else None
        for handle, mode in handles:
            if mode.writes:
                valid = handle.valid_nodes
                if len(valid) != 1 or target not in valid:
                    for other in list(valid):
                        if other != target and other != MEM_HOST:
                            self.managers[other].remove(handle)
                    handle.valid_nodes = {target}
                    self._arrival.pop((handle.hid, target), None)
                handle.owner = target if target != MEM_HOST else None
            if mgr is not None:
                mgr.unpin(handle)
            handle.check_invariants()

    def abandon(
        self,
        handles: Iterable[tuple[OracleHandle, AccessMode]],
        target: int,
    ) -> None:
        if target == MEM_HOST:
            return
        mgr = self.managers[target]
        for handle, _mode in handles:
            mgr.unpin(handle)

    def flush_to_host(self, handles: Iterable[OracleHandle]) -> None:
        for handle in handles:
            if handle.owner is not None:
                node_id = handle.owner
                link = self.node.link_of_mem_node(node_id)
                link.reserve(handle.nbytes, "d2h", f"flush:{handle.label}")
                self._account(handle.nbytes)
                handle.owner = None
                handle.valid_nodes.add(MEM_HOST)

    def _account(self, nbytes: int) -> None:
        self.bytes_transferred += nbytes
        self.n_transfers += 1
