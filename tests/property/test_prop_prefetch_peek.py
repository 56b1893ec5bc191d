"""dmdas's prefetch peek equals a sort of the whole heap.

``DMDASScheduler.peek_many`` sorts only the heap's first ``2^d - 1``
entries, where the ``d`` smallest must sit.  It must name the same tasks,
in the same order, as sorting the worker's whole heap, and leave the heap
as it was.
"""

import heapq

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hardware.catalog import build_platform
from repro.runtime.data import DataManager
from repro.runtime.perfmodel import PerfModelSet
from repro.runtime.schedulers.dmdas import DMDASScheduler
from repro.runtime.worker import build_workers
from repro.sim import RNGPool, Simulator


def _scheduler():
    node = build_platform("24-Intel-2-V100", Simulator())
    workers = build_workers(node)
    sched = DMDASScheduler(workers, PerfModelSet(), DataManager(node), RNGPool(0).stream("s"))
    return sched, workers[0]


@st.composite
def heaps(draw):
    """A heap of ``(-priority, seq, task)`` entries, built by pushes (as the
    scheduler builds it) or by heapify, then shrunk by pops.  Priorities
    come from a narrow range, where the seq often decides, or a wide one."""
    priorities = draw(st.lists(
        st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6)), max_size=40,
    ))
    entries = [(-priority, seq, f"t{seq}") for seq, priority in enumerate(priorities)]
    if draw(st.booleans()):
        heap = draw(st.permutations(entries))
        heapq.heapify(heap)
    else:
        heap = []
        for entry in entries:
            heapq.heappush(heap, entry)
    for _ in range(draw(st.integers(0, len(heap)))):
        heapq.heappop(heap)
    return heap


def _heap(keys):
    return [(k, i, f"t{i}") for i, k in enumerate(keys)]


@settings(max_examples=300, deadline=None)
@given(heaps(), st.integers(0, 5))
# The third smallest entry is a grandchild of the root, on either side.
@example(_heap([0, 10, 1, 11, 12, 3, 2]), 3)
@example(_heap([0, 1, 10, 3, 2, 11, 12]), 3)
def test_peek_many_equals_sorting_the_whole_heap(heap, depth):
    before = list(heap)
    sched, worker = _scheduler()
    sched._heaps[worker.name] = heap
    got = sched.peek_many(worker, depth)
    assert got == [task for _, _, task in sorted(before)[:depth]]
    assert heap == before
