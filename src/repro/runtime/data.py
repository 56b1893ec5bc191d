"""Data handles, MSI coherence across memory nodes, LRU device memory.

A :class:`DataHandle` names one logical block (a matrix tile).  Replicas live
on memory nodes (0 = host, ``1 + i`` = GPU ``i``); the coherence rules are the
MSI protocol StarPU implements:

- any number of nodes may hold a *valid* (shared) replica;
- a write makes the writing node the sole *owner* (all other replicas are
  invalidated);
- a read on a node without a valid replica fetches from the owner (or the
  host), over the links, which is where transfer time comes from.

GPU memory is finite: each device node has an LRU :class:`MemoryManager`.
Evicting a clean replica is free (drop); evicting the owner's dirty replica
requires a write-back transfer to the host.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from repro.hardware.node import MEM_HOST, Node


class AccessMode(Enum):
    """StarPU data access modes.

    ``reads``/``writes`` are plain attributes precomputed at member
    construction — they are consulted for every handle on every placement
    estimate, staging and release, where property dispatch is measurable.
    """

    R = "R"
    W = "W"
    RW = "RW"

    def __init__(self, value: str) -> None:
        self.reads: bool = value != "W"
        self.writes: bool = value != "R"


class CoherenceError(RuntimeError):
    """Raised when the MSI invariants are violated."""


_handle_ids = itertools.count()


@dataclass(eq=False)
class DataHandle:
    """One logical data block registered with the runtime."""

    nbytes: int
    label: str = ""
    home_node: int = MEM_HOST
    hid: int = field(default_factory=lambda: next(_handle_ids))
    valid_nodes: set[int] = field(default_factory=set)
    owner: Optional[int] = None  # node holding the sole dirty replica

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError("handle size must be positive")
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

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DataHandle #{self.hid} {self.label or ''} {self.nbytes}B>"


#: Shared empty eviction list for MemoryManager.add's resident fast path.
_NO_EVICTIONS: list = []


class MemoryManager:
    """LRU residency tracking for one device memory node."""

    def __init__(self, node_id: int, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.node_id = node_id
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self._resident: "OrderedDict[DataHandle, int]" = OrderedDict()
        self._pinned: dict[DataHandle, int] = {}
        #: Bytes held by pinned handles, maintained incrementally so the
        #: prefetch admission check is O(1) instead of a sum over the pins.
        self.pinned_bytes = 0
        self.n_evictions = 0

    def resident(self, handle: DataHandle) -> bool:
        return handle in self._resident

    def touch(self, handle: DataHandle) -> None:
        if handle in self._resident:
            self._resident.move_to_end(handle)

    def pin(self, handle: DataHandle) -> None:
        count = self._pinned.get(handle, 0)
        if count == 0:
            self.pinned_bytes += handle.nbytes
        self._pinned[handle] = count + 1

    def unpin(self, handle: DataHandle) -> None:
        count = self._pinned.get(handle, 0)
        if count <= 1:
            if self._pinned.pop(handle, None) is not None:
                self.pinned_bytes -= handle.nbytes
        else:
            self._pinned[handle] = count - 1

    def add(self, handle: DataHandle) -> list[DataHandle]:
        """Make ``handle`` resident; returns the handles evicted to fit it.

        The caller is responsible for write-backs of dirty evictees and for
        updating coherence state.  The returned list is shared when nothing
        was evicted — callers only iterate it.
        """
        try:
            # Fast path: already resident — just refresh its LRU position.
            self._resident.move_to_end(handle)
            return _NO_EVICTIONS
        except KeyError:
            pass
        if handle.nbytes > self.capacity_bytes:
            raise CoherenceError(
                f"handle of {handle.nbytes} B exceeds node {self.node_id} "
                f"capacity {self.capacity_bytes} B"
            )
        evicted: list[DataHandle] = []
        while self.used_bytes + handle.nbytes > self.capacity_bytes:
            victim = self._next_victim()
            if victim is None:
                raise CoherenceError(
                    f"node {self.node_id}: cannot evict enough memory "
                    f"({self.used_bytes}/{self.capacity_bytes} B used, all pinned)"
                )
            self.remove(victim)
            evicted.append(victim)
            self.n_evictions += 1
        self._resident[handle] = handle.nbytes
        self.used_bytes += handle.nbytes
        return evicted

    def _next_victim(self) -> Optional[DataHandle]:
        for candidate in self._resident:
            if candidate not in self._pinned:
                return candidate
        return None

    def remove(self, handle: DataHandle) -> None:
        nbytes = self._resident.pop(handle, None)
        if nbytes is not None:
            self.used_bytes -= nbytes


#: Share of each GPU's memory the runtime may fill before evicting.
MEMORY_HEADROOM = 0.9


class DataManager:
    """Coherence + transfers over a node's memory hierarchy."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.managers: dict[int, MemoryManager] = {
            node.mem_node_of_gpu(i): MemoryManager(
                node.mem_node_of_gpu(i),
                int(gpu.spec.memory_gb * 1e9 * MEMORY_HEADROOM),
            )
            for i, gpu in enumerate(node.gpus)
        }
        # Link by device memory node, for estimate hot paths (node 1+i is
        # GPU i's memory, served by links[i]).
        self._links = {
            node.mem_node_of_gpu(i): node.link_of_mem_node(node.mem_node_of_gpu(i))
            for i in range(len(node.gpus))
        }
        self.bytes_transferred = 0
        self.n_transfers = 0
        # Estimate-memo traffic, exported by the observability layer.
        self.n_memo_hits = 0
        self.n_memo_misses = 0
        # Arrival times of in-flight replicas: (handle id, node) -> abs time.
        self._arrival: dict[tuple[int, int], float] = {}
        # Scoped memo for transfer_estimate; active only inside
        # estimate_cache() windows (one scheduling decision).
        self._estimate_memo: Optional[dict] = None

    # ------------------------------------------------------------- estimates

    @contextmanager
    def estimate_cache(self):
        """Memoize :meth:`transfer_estimate` for the duration of one
        scheduling decision.

        Coherence state and link backlogs cannot change while a scheduler
        is scoring candidates, so repeated queries for the same (handles,
        target) pair — e.g. two CPU packages sharing the host memory node —
        are pure recomputation.  The memo dies when the ``with`` block
        exits; nested use reuses the outer memo.
        """
        if self._estimate_memo is not None:
            yield
            return
        self._estimate_memo = {}
        try:
            yield
        finally:
            self._estimate_memo = None

    def transfer_estimate(self, handles: Sequence[tuple[DataHandle, AccessMode]], target: int) -> float:
        """Predicted transfer delay to make all reads valid at ``target``.

        Mirrors dmda's transfer-penalty term: static link time plus current
        queue backlog, no reservation.
        """
        memo = self._estimate_memo
        if memo is not None:
            # id() is safe here: the memo only lives within one decision,
            # during which the accesses list object cannot be recycled.
            key = (id(handles), target)
            cached = memo.get(key)
            if cached is not None:
                self.n_memo_hits += 1
                return cached
            self.n_memo_misses += 1
        total = 0.0
        for handle, mode in handles:
            if not mode.reads or target in handle.valid_nodes:
                continue
            source = self._pick_source(handle)
            total += self._path_estimate(source, target, handle.nbytes)
        if memo is not None:
            memo[key] = total
        return total

    def transfer_estimates(
        self,
        handles: Sequence[tuple[DataHandle, AccessMode]],
        targets: Sequence[int],
    ) -> dict[int, float]:
        """:meth:`transfer_estimate` for several targets in one pass.

        One scheduling decision scores every placement class, and the
        classes differ only in their memory node — so the walk over the
        task's handles (and each handle's d2h queueing component, which
        does not depend on the target) is shared across all targets.  Each
        per-target total accumulates the exact same addends in the exact
        same order as a :meth:`transfer_estimate` call would, so the sums
        are bit-identical.
        """
        totals = dict.fromkeys(targets, 0.0)
        now = self.node.clock.now
        links = self._links
        for handle, mode in handles:
            if not mode.reads:
                continue
            valid = handle.valid_nodes
            missing = [t for t in targets if t not in valid]
            if not missing:
                continue
            nbytes = handle.nbytes
            source = self._pick_source(handle)
            if source != MEM_HOST:
                link = links[source]
                avail = link._avail_at["d2h"]
                d2h = (avail - now if avail > now else 0.0) + link._transfer_time(nbytes)
            else:
                d2h = 0.0
            for t in missing:
                if t != MEM_HOST:
                    link = links[t]
                    avail = link._avail_at["h2d"]
                    totals[t] += d2h + (
                        (avail - now if avail > now else 0.0)
                        + link._transfer_time(nbytes)
                    )
                else:
                    totals[t] += d2h
        return totals

    def _path_estimate(self, source: int, target: int, nbytes: int) -> float:
        # Inlined Link.estimate (queueing delay + uncontended transfer
        # time): this runs once per missing handle per placement class for
        # every scheduling decision.  ``max(now, avail) - now`` is exactly
        # ``avail - now`` when the link is backed up and ``0.0`` otherwise,
        # so the folds below are bit-identical to the Link.estimate path.
        est = 0.0
        now = self.node.clock.now
        if source != MEM_HOST:
            link = self._links[source]
            avail = link._avail_at["d2h"]
            est += (avail - now if avail > now else 0.0) + link._transfer_time(nbytes)
        if target != MEM_HOST:
            link = self._links[target]
            avail = link._avail_at["h2d"]
            est += (avail - now if avail > now else 0.0) + link._transfer_time(nbytes)
        return est

    # ------------------------------------------------------------ operations

    def _pick_source(self, handle: DataHandle) -> int:
        if handle.owner is not None:
            return handle.owner
        if MEM_HOST in handle.valid_nodes:
            return MEM_HOST
        return min(handle.valid_nodes)

    def acquire(
        self,
        handles: Iterable[tuple[DataHandle, AccessMode]],
        target: int,
        now: float,
        label: str = "",
    ) -> float:
        """Stage all data for a task on ``target``; returns the absolute time
        at which every required replica is valid there (>= ``now``)."""
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
                # Possibly still in flight from a prefetch.
                arrival = arrivals.get((handle.hid, target))
                if arrival is not None:
                    if arrival > now:
                        if arrival > ready:
                            ready = arrival
                    else:
                        del arrivals[(handle.hid, target)]
                if mgr is not None:
                    mgr.touch(handle)
            if mode == AccessMode.W and target not in handle.valid_nodes:
                # Write-only: no fetch, the replica materialises on write.
                pass
        return ready

    def prefetch(
        self,
        handles: Iterable[tuple[DataHandle, AccessMode]],
        target: int,
        label: str = "",
    ) -> None:
        """Start staging read data for a queued task without pinning it.

        Mirrors StarPU's prefetch: transfers overlap with the execution of
        the task currently occupying the worker.  The prefetched replica may
        still be evicted before use, in which case :meth:`acquire` simply
        fetches again.
        """
        for handle, mode in handles:
            if not mode.reads or target in handle.valid_nodes:
                continue
            if target != MEM_HOST:
                mgr = self.managers[target]
                if handle.nbytes > mgr.capacity_bytes - mgr.pinned_bytes:
                    continue  # do not evict pinned working-set for a prefetch
                for victim in mgr.add(handle):
                    self._evict(victim, target, label)
            self._fetch(handle, target, f"pf:{label}")

    def _fetch(self, handle: DataHandle, target: int, label: str, now: float = 0.0) -> float:
        source = self._pick_source(handle)
        end = 0.0
        if source != MEM_HOST and MEM_HOST not in handle.valid_nodes:
            # Relay through the host (no direct GPU-GPU path modelled).
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
            handle.owner = None  # replica shared now; no longer exclusively dirty
        return end

    def _evict(self, victim: DataHandle, node_id: int, label: str) -> None:
        if victim.owner == node_id:
            # Dirty owner: write back to host before dropping.
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
        handles: Iterable[tuple[DataHandle, AccessMode]],
        target: int,
    ) -> None:
        """Apply write effects after the task ran on ``target`` and unpin."""
        mgr = self.managers[target] if target != MEM_HOST else None
        for handle, mode in handles:
            if mode.writes:
                # Invalidate all other replicas; target becomes owner.
                valid = handle.valid_nodes
                if len(valid) != 1 or target not in valid:
                    for other in list(valid):
                        if other != target and other != MEM_HOST:
                            self.managers[other].remove(handle)
                    handle.valid_nodes = {target}
                handle.owner = target if target != MEM_HOST else None
            if mgr is not None:
                mgr.unpin(handle)
            handle.check_invariants()

    def abandon(
        self,
        handles: Iterable[tuple[DataHandle, AccessMode]],
        target: int,
    ) -> None:
        """Unpin staged data *without* applying write effects.

        Fault-recovery counterpart of :meth:`release`: the task was aborted
        mid-staging or mid-execution, so its writes never happened and the
        coherence state must stay as acquire left it.
        """
        if target == MEM_HOST:
            return
        mgr = self.managers[target]
        for handle, _mode in handles:
            mgr.unpin(handle)

    def flush_to_host(self, handles: Iterable[DataHandle]) -> None:
        """Write all dirty replicas back to the host (end-of-operation)."""
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
