"""Property-based tests: the dm class scan's floor prune is exact.

An unlogged dm-family scan skips a multi-member placement class whose
floor (its terms folded onto a 0.0 backlog) is above the best cost so far.
That is sound only while every backlog is >= 0, and only with a strict
comparison (a tie may still go to the class through the index
tie-break).  Here the pruned scan is compared decision by decision with
``brute_force_placement`` on the same scheduler state, with backlogs drawn
to sit on the edges: exact 0.0, the smallest subnormal, residues such as
1e-19 that vanish when added to an estimate, floors pinned to a GPU's
cost, and worker orders where a class's members are not consecutive.
"""

import inspect

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernels.tile_kernels import TileOp
from repro.obs.decisions import DecisionLog
from repro.runtime.data import DataManager
from repro.runtime.graph import Task
from repro.runtime.perfmodel import PerfModelSet
from repro.runtime.worker import Worker
from repro.runtime.schedulers.dm import DMScheduler
from repro.runtime.schedulers.dmda import DMDAScheduler


class _Worker:
    def __init__(self, name, arch, mem_node, is_gpu):
        self.name = name
        self.arch = arch
        self.mem_node = mem_node
        self.is_gpu = is_gpu

    def can_run(self, op):
        return op.runs_on_gpu if self.is_gpu else True


class _Perf:
    def __init__(self, table):
        self.table = table
        self.archs = []
        self.n_cache_hits = 0

    def arch_slot(self, arch):
        if arch not in self.archs:
            self.archs.append(arch)
        return self.archs.index(arch)

    def row(self, op):
        return [self.table[op.kind, arch] for arch in self.archs]

    def estimate(self, op, arch):
        return self.table[op.kind, arch]


class _Data:
    def __init__(self, table):
        self.table = table

    def transfer_estimates(self, handles, targets):
        totals = [0.0] * len(MEM_NODES)
        for t in targets:
            totals[t] = self.table[t]
        return totals

    def transfer_estimate(self, handles, target):
        return self.table[target]


@pytest.mark.parametrize("stub, real", [
    (_Worker, Worker), (_Perf, PerfModelSet), (_Data, DataManager),
])
def test_stub_methods_take_the_real_parameters(stub, real):
    """Each stub method stands in for the real one: same parameter names
    and kinds, so a scheduler calls both the same way.  The perf stub
    defines the estimate-row accessors that the class scan reads."""
    if stub is _Perf:
        assert {"arch_slot", "row", "estimate"} <= set(vars(stub))
    for name, method in vars(stub).items():
        if name.startswith("__"):
            continue
        assert (
            list(inspect.signature(method).parameters.values())
            == [p.replace(annotation=p.empty)
                for p in inspect.signature(getattr(real, name)).parameters.values()]
        ), name


class _WithExtraTerm(DMDAScheduler):
    """A third, per-arch addend: the scan goes through the override."""

    extra: dict = {}

    def placement_terms(self, task, worker, now, xfer=None):
        return super().placement_terms(task, worker, now, xfer) + (
            self.extra[worker.arch],
        )


POLICIES = [DMScheduler, DMDAScheduler, _WithExtraTerm]
KINDS = ["gemm", "potrf"]  # potrf has no GPU codelet
ARCHS = ["cuda0", "cuda1", "cpu0", "cpu1"]
MEM_NODES = [0, 1, 2]

#: Backlogs: the edge values, and anything in between.
BACKLOGS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-19, 0.5, 1.0, 2.0]),
    st.floats(0.0, 8.0),
)
#: Estimates and transfer terms, from a small set so that costs tie often.
TERMS = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]), st.floats(1e-9, 8.0))


def _workers(n_cpu0: int, n_cpu1: int) -> list[_Worker]:
    """Two GPUs (one class each) and two CPU packages, in a base order."""
    workers = [
        _Worker("gpu-w0", "cuda0", 1, True),
        _Worker("gpu-w1", "cuda1", 2, True),
    ]
    workers += [_Worker(f"cpu0-w{i}", "cpu0", 0, False) for i in range(n_cpu0)]
    workers += [_Worker(f"cpu1-w{i}", "cpu1", 0, False) for i in range(n_cpu1)]
    return workers


@st.composite
def states(draw):
    """One scheduler state: a worker order, the terms and the backlogs."""
    workers = _workers(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    order = draw(st.permutations(range(len(workers))))
    est = {(kind, arch): draw(TERMS) for kind in KINDS for arch in ARCHS}
    xfer = {node: draw(TERMS) for node in MEM_NODES}
    extra = {arch: draw(st.sampled_from([0.0, -0.25, 1.0])) for arch in ARCHS}
    backlogs = [draw(BACKLOGS) for _ in workers]
    if draw(st.booleans()):
        # Pin a CPU package's dm floor to a GPU's cost: an exact tie.
        gpu = draw(st.sampled_from([0, 1]))
        est["gemm", draw(st.sampled_from(["cpu0", "cpu1"]))] = (
            backlogs[order.index(gpu)] + est["gemm", f"cuda{gpu}"]
        )
    return (
        [workers[i] for i in order], est, xfer, extra, backlogs,
        draw(st.sampled_from(KINDS)),
    )


def _scheduler(policy, state, brute, log=None):
    workers, est, xfer, extra, backlogs, _ = state
    sched = policy(workers, _Perf(est), _Data(xfer), rng=None)
    sched._backlog = list(backlogs)
    sched.brute_force_placement = brute
    sched.decision_log = log
    if policy is _WithExtraTerm:
        sched.extra = extra
    return sched


def _member_costs(record) -> dict:
    return {
        name: cost
        for cand in record.candidates
        for name, cost in zip(cand.workers, cand.costs)
    }


# Interleaved packages, cpu0 at positions 0 and 2 and cpu1 at 1 and 3: the
# best cpu0 member is position 2, and cpu1's floor ties it, so cpu1's
# position-1 member (its backlog 1e-19 vanishes in the add) must win.
_INTERLEAVED = [
    _Worker("cpu0-w0", "cpu0", 0, False),
    _Worker("cpu1-w0", "cpu1", 0, False),
    _Worker("cpu0-w1", "cpu0", 0, False),
    _Worker("cpu1-w1", "cpu1", 0, False),
    _Worker("gpu-w0", "cuda0", 1, True),
    _Worker("gpu-w1", "cuda1", 2, True),
]
_TIE_EST = {
    (kind, arch): value
    for kind in KINDS
    for arch, value in (("cpu0", 1.0), ("cpu1", 2.0), ("cuda0", 3.0), ("cuda1", 3.0))
}


@settings(max_examples=300, deadline=None)
@given(states())
@example((_INTERLEAVED, _TIE_EST, dict.fromkeys(MEM_NODES, 0.5),
          dict.fromkeys(ARCHS, 0.0), [5.0, 1e-19, 1.0, 0.0, 0.0, 0.0], "gemm"))
# The first cpu1 member is loaded and the second idle: a floor taken from
# the first member's backlog would wrongly drop the class.
@example((_INTERLEAVED, _TIE_EST, dict.fromkeys(MEM_NODES, 0.5),
          dict.fromkeys(ARCHS, 0.0), [5.0, 9.0, 2.0, 0.0, 0.0, 0.0], "gemm"))
def test_pruned_scan_matches_brute_force(state):
    task = Task(0, TileOp(state[5], 64, "double"), ())
    for policy in POLICIES:
        expected = _scheduler(policy, state, brute=True)._select_worker(task, 0.0)
        assert _scheduler(policy, state, brute=False)._select_worker(task, 0.0) == expected
        # A logged scan logs every class's terms and the backlogs, and the
        # log folds each member's cost when read: it equals the per-worker
        # cost of the brute-force scan.
        fast_log, brute_log = DecisionLog(), DecisionLog()
        logged = _scheduler(policy, state, brute=False, log=fast_log)
        assert logged._select_worker(task, 0.0) == expected
        _scheduler(policy, state, brute=True, log=brute_log)._select_worker(task, 0.0)
        (fast,), (brute,) = fast_log.records, brute_log.records
        assert (fast.chosen, fast.chosen_cost) == (brute.chosen, brute.chosen_cost)
        assert _member_costs(fast) == _member_costs(brute)


#: One scheduler step: push a task of a kind, finish the k-th running
#: task, or exclude / readmit a worker by position.
STEPS = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(KINDS)),
    st.tuples(st.just("finish"), st.integers(0, 50)),
    st.tuples(st.just("exclude"), st.integers(0, 9)),
    st.tuples(st.just("readmit"), st.integers(0, 9)),
)


@settings(max_examples=150, deadline=None)
@given(states(), st.sampled_from(POLICIES), st.lists(STEPS, max_size=40))
def test_backlogs_stay_nonnegative_and_placements_match(state, policy, steps):
    """Pushes, finishes and drains, run on a pruned and a brute-force
    scheduler in lockstep: every placement agrees, and no backlog ever
    goes below 0.0."""
    state = (*state[:4], [0.0] * len(state[0]), state[5])
    fast = _scheduler(policy, state, brute=False)
    brute = _scheduler(policy, state, brute=True)
    workers = state[0]
    running: list[tuple[Task, _Worker]] = []
    for tid, (action, arg) in enumerate(steps):
        if action == "push":
            task = Task(tid, TileOp(arg, 64, "double"), ())
            worker = fast.push_ready(task, 0.0)
            assert brute.push_ready(task, 0.0) is worker
            running.append((task, worker))
        elif action == "finish" and running:
            task, worker = running.pop(arg % len(running))
            fast.task_finished(task, worker, 0.0)
            brute.task_finished(task, worker, 0.0)
        elif action == "exclude":
            worker = workers[arg % len(workers)]
            # Keep one CPU worker placeable: potrf runs nowhere else.
            cpus_left = [
                w for w in workers
                if not w.is_gpu and w.name not in fast._excluded and w is not worker
            ]
            if cpus_left:
                drained = fast.exclude_worker(worker)
                assert brute.exclude_worker(worker) == drained
                running = [(t, w) for t, w in running if t not in drained]
        elif action == "readmit":
            worker = workers[arg % len(workers)]
            fast.readmit_worker(worker)
            brute.readmit_worker(worker)
        assert fast._backlog == brute._backlog
        assert all(b >= 0.0 for b in fast._backlog)
