"""Data handles, MSI coherence across memory nodes, LRU device memory.

A :class:`DataHandle` names one logical block (a matrix tile).  Replicas live
on memory nodes (0 = host, ``1 + i`` = GPU ``i``); the coherence rules are the
MSI protocol StarPU implements:

- any number of nodes may hold a *valid* (shared) replica;
- a write makes the writing node the sole *owner* (all other replicas are
  invalidated);
- a read on a node without a valid replica fetches from the owner (or the
  host), over the links, which is where transfer time comes from.

Replica state is flat: ``DataHandle.valid`` is an int bitmask (bit ``n`` =
node ``n`` holds a valid copy) and ``DataHandle.dirty`` marks the single
valid replica as MODIFIED.  Only :meth:`DataManager.release` sets ``dirty``,
and always together with ``valid = 1 << target``; every path that adds a bit
clears it.  Coherence questions are mask tests, and the per-access invariant
check is a two-op tripwire on the mask.

GPU memory is finite: each device node has an LRU :class:`MemoryManager`.
Evicting a clean replica is free (drop); evicting the owner's dirty replica
requires a write-back transfer to the host.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro.hardware.node import MEM_HOST, Node

if TYPE_CHECKING:
    from repro.runtime.graph import Task


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

#: Mask bit of the host memory node.
_HOST_BIT = 1 << MEM_HOST


@dataclass(eq=False)
class DataHandle:
    """One logical data block registered with the runtime.

    ``valid`` is the replica bitmask (bit ``n`` set = node ``n`` holds a
    valid copy) and ``dirty`` marks the single valid replica as MODIFIED.
    The handle hashes by identity.
    """

    nbytes: int
    label: str = ""
    home_node: int = MEM_HOST
    hid: int = field(default_factory=lambda: next(_handle_ids))
    valid: int = field(default=0, init=False)
    dirty: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError("handle size must be positive")
        if self.home_node < 0:
            raise ValueError(f"home_node must be >= 0, got {self.home_node}")
        self.valid = 1 << self.home_node

    @property
    def valid_nodes(self) -> set[int]:
        """Memory nodes holding a valid replica."""
        v = self.valid
        return {n for n in range(v.bit_length()) if v >> n & 1}

    @property
    def owner(self) -> Optional[int]:
        """Node holding the sole dirty (MODIFIED) replica, else ``None``."""
        return self.valid.bit_length() - 1 if self.dirty else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DataHandle #{self.hid} {self.label or ''} {self.nbytes}B>"


def _incoherent(handle: DataHandle) -> CoherenceError:
    """The error of a handle with no replica, or dirty with two or more."""
    if not handle.valid:
        return CoherenceError(f"{handle}: no valid replica anywhere")
    return CoherenceError(f"{handle}: dirty but valid on {sorted(handle.valid_nodes)}")


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
        if handle in self._resident:
            # Fast path: already resident — just refresh its LRU position.
            self._resident.move_to_end(handle)
            return _NO_EVICTIONS
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
        # Link by memory node, for the hot paths: node 1+i is GPU i's
        # memory, served by node.links[i]; the host (node 0) has none.
        self._links: list = [None]
        for i in range(len(node.gpus)):
            self._links.append(node.link_of_mem_node(node.mem_node_of_gpu(i)))
        # Uncontended transfer time of each node's link (0.0 for the
        # host), by handle size; tiles come in a handful of sizes.
        self._transfer_times: dict[int, list[float]] = {}
        # transfer_estimates' last target tuple and its bitmask.  The
        # scheduler builds its tuple once per change of placement classes,
        # so an identity test stands in for hashing the tuple per decision.
        self._mask_targets: Optional[Sequence[int]] = None
        self._target_mask = 0
        # The memory nodes whose bits a mask sets, for every mask.
        n_nodes = len(self._links)
        self._nodes_of = [
            tuple(n for n in range(n_nodes) if mask >> n & 1) for mask in range(1 << n_nodes)
        ]
        self.bytes_transferred = 0
        self.n_transfers = 0
        # Arrival times of in-flight replicas: (handle id, node) -> abs time.
        self._arrival: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------- estimates

    def transfer_estimate(self, handles: Sequence[tuple[DataHandle, AccessMode]], target: int) -> float:
        """Predicted transfer delay to make all reads valid at ``target``.

        Mirrors dmda's transfer-penalty term: static link time plus current
        queue backlog, no reservation.
        """
        return self.transfer_estimates(handles, (target,))[target]

    def transfer_estimates(
        self,
        handles: Sequence[tuple[DataHandle, AccessMode]],
        targets: Sequence[int],
    ) -> list[float]:
        """:meth:`transfer_estimate` for several distinct targets in one pass.

        One scheduling decision scores every placement class, and the
        classes differ only in their memory node — so the walk over the
        task's handles (and each handle's d2h queueing component, which
        does not depend on the target) is shared across all targets.  A
        missing read costs the source's d2h leg (queueing delay plus
        uncontended transfer time; zero when the host holds a copy) plus
        the target's h2d leg, summed per target in handle order.

        The totals come back as a list indexed by memory node; a node not
        in ``targets`` reads 0.0.
        """
        if targets is not self._mask_targets:
            target_mask = 0
            for t in targets:
                target_mask |= 1 << t
            self._mask_targets = targets
            self._target_mask = target_mask
        target_mask = self._target_mask
        links = self._links
        transfer_times = self._transfer_times
        totals = [0.0] * len(links)
        now = self.node.clock.now
        nodes_of = self._nodes_of
        # The h2d addend of a target depends only on the handle size, so it
        # is priced once per size per call, indexed by node; the host's is
        # 0.0, and ``d2h + 0.0 == d2h`` for the non-negative d2h.
        h2d_size = 0
        for handle, mode in handles:
            if not mode.reads:
                continue
            valid = handle.valid
            missing = target_mask & ~valid
            if not missing:
                continue
            nbytes = handle.nbytes
            if nbytes != h2d_size:
                h2d_size = nbytes
                times = transfer_times.get(nbytes) or self._transfer_times_of(nbytes)
                h2d = [0.0] * len(links)
                for t in targets:
                    if t != MEM_HOST:
                        avail = links[t]._avail_at["h2d"]
                        h2d[t] = (avail - now if avail > now else 0.0) + times[t]
            if valid & _HOST_BIT:
                d2h = 0.0
            else:
                # The read's source: the owner is the lowest set bit.
                source = (valid & -valid).bit_length() - 1
                avail = links[source]._avail_at["d2h"]
                d2h = (avail - now if avail > now else 0.0) + times[source]
            for t in nodes_of[missing]:
                totals[t] += d2h + h2d[t]
        return totals

    def _transfer_times_of(self, nbytes: int) -> list[float]:
        times = self._transfer_times.get(nbytes)
        if times is None:
            times = self._transfer_times[nbytes] = [0.0] + [
                link._transfer_time(nbytes) for link in self._links[1:]
            ]
        return times

    # ------------------------------------------------------------ operations

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
        target_bit = 1 << target
        if target != MEM_HOST:
            mgr = self.managers[target]
            resident = mgr._resident
            pinned = mgr._pinned
        else:
            mgr = None
        arrivals = self._arrival
        for handle, mode in handles:
            valid = handle.valid
            # Invariant tripwire: no replica, or dirty with two or more.
            if not valid or (handle.dirty and valid & (valid - 1)):
                raise _incoherent(handle)
            if mgr is not None:
                # Refresh the LRU position (or admit, evicting), then pin.
                if handle in resident:
                    resident.move_to_end(handle)
                else:
                    for victim in mgr.add(handle):
                        self._evict(victim, target, label)
                count = pinned.get(handle, 0)
                if not count:
                    mgr.pinned_bytes += handle.nbytes
                pinned[handle] = count + 1
            if valid & target_bit:
                # Possibly still in flight from a prefetch.
                key = (handle.hid, target)
                arrival = arrivals.get(key)
                if arrival is not None:
                    if arrival > now:
                        if arrival > ready:
                            ready = arrival
                    else:
                        del arrivals[key]
            elif mode.reads:
                fetched = self._fetch(handle, target, label, now)
                if fetched > ready:
                    ready = fetched
            # Write-only and not valid here: no fetch, the replica
            # materialises on write.
        return ready

    def prefetch(self, tasks: Iterable[Task], target: int) -> None:
        """Start staging the read data of queued ``tasks`` without pinning it.

        Mirrors StarPU's prefetch: transfers overlap with the execution of
        the task currently occupying the worker.  The prefetched replica may
        still be evicted before use, in which case :meth:`acquire` simply
        fetches again.
        """
        target_bit = 1 << target
        mgr = self.managers[target] if target != MEM_HOST else None
        for task in tasks:
            label = task.label
            for handle, mode in task.accesses:
                if not mode.reads or handle.valid & target_bit:
                    continue
                if mgr is not None:
                    if handle.nbytes > mgr.capacity_bytes - mgr.pinned_bytes:
                        continue  # do not evict pinned working-set for a prefetch
                    for victim in mgr.add(handle):
                        self._evict(victim, target, label)
                self._fetch(handle, target, f"pf:{label}")

    def _fetch(self, handle: DataHandle, target: int, label: str, now: float = 0.0) -> float:
        # Afterwards the host and ``target`` are valid and nothing is
        # dirty: a dirty replica is relayed through the host first (no
        # direct GPU-GPU path is modelled).
        valid = handle.valid
        nbytes = handle.nbytes
        label = label or handle.label
        end = 0.0
        if not valid & _HOST_BIT:
            # The owner, else the lowest valid node: a dirty replica is the
            # only valid one and never the host's, so the lowest set bit.
            source = (valid & -valid).bit_length() - 1
            _, end = self._links[source].reserve(nbytes, "d2h", label, now)
            self.bytes_transferred += nbytes
            self.n_transfers += 1
        if target != MEM_HOST:
            _, end2 = self._links[target].reserve(
                nbytes, "h2d", label, now if now >= end else end
            )
            if end2 > end:
                end = end2
            self.bytes_transferred += nbytes
            self.n_transfers += 1
        handle.valid = valid | _HOST_BIT | 1 << target
        handle.dirty = False
        if end > 0.0:
            self._arrival[(handle.hid, target)] = end
        return end

    def _evict(self, victim: DataHandle, node_id: int, label: str) -> None:
        node_bit = 1 << node_id
        if victim.dirty and victim.valid == node_bit:
            # Dirty owner: write back to host before dropping.
            link = self._links[node_id]
            link.reserve(victim.nbytes, "d2h", f"wb:{victim.label or label}")
            self.bytes_transferred += victim.nbytes
            self.n_transfers += 1
            victim.valid = _HOST_BIT
            victim.dirty = False
        else:
            valid = victim.valid & ~node_bit
            if not valid:
                raise CoherenceError(f"evicted sole replica of {victim}")
            victim.valid = valid

    def release(
        self,
        handles: Iterable[tuple[DataHandle, AccessMode]],
        target: int,
    ) -> None:
        """Apply write effects after the task ran on ``target`` and unpin."""
        target_bit = 1 << target
        on_device = target != MEM_HOST
        if on_device:
            mgr = self.managers[target]
            pinned = mgr._pinned
        else:
            pinned = None
        arrivals = self._arrival
        for handle, mode in handles:
            if mode.writes:
                valid = handle.valid
                if valid != target_bit:
                    # Invalidate all other device replicas; a prefetch
                    # arrival recorded for an earlier replica here is dead.
                    others = valid & ~(target_bit | _HOST_BIT)
                    while others:
                        low = others & -others
                        self.managers[low.bit_length() - 1].remove(handle)
                        others ^= low
                    handle.valid = valid = target_bit
                    arrivals.pop((handle.hid, target), None)
                handle.dirty = on_device
            else:
                valid = handle.valid
            if pinned is not None:
                # Inlined MemoryManager.unpin.
                count = pinned.get(handle)
                if count == 1:
                    del pinned[handle]
                    mgr.pinned_bytes -= handle.nbytes
                elif count:
                    pinned[handle] = count - 1
            if not valid or (handle.dirty and valid & (valid - 1)):
                raise _incoherent(handle)

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
            if handle.dirty:
                link = self._links[handle.owner]
                link.reserve(handle.nbytes, "d2h", f"flush:{handle.label}")
                self.bytes_transferred += handle.nbytes
                self.n_transfers += 1
                handle.dirty = False
                handle.valid |= _HOST_BIT
