"""The virtual-clock job lifecycle: start, retire, release."""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.algorithms import AMP
from repro.model import Job, ResourceRequest, Window, WindowSlot
from repro.model.errors import SchedulingError
from repro.service import JobLifecycle
from tests.conftest import free_spans, make_slot, pool_state


@pytest.fixture
def scheduled(uniform_pool):
    job = Job("lc", ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0))
    window = AMP().select(job, uniform_pool)
    assert window is not None
    uniform_pool.commit_window(window)
    return job, window, uniform_pool


def test_start_and_retire_releases_slots(scheduled):
    job, window, pool = scheduled
    free_before = pool.total_free_time()
    lifecycle = JobLifecycle()
    entry = lifecycle.start(job, window, now=0.0)
    assert entry.completes_at == window.start + window.runtime
    assert lifecycle.active_count == 1
    assert lifecycle.next_completion() == entry.completes_at

    assert lifecycle.retire_due(entry.completes_at - 1.0, pool) == []
    retired = lifecycle.retire_due(entry.completes_at, pool)
    assert [item.job.job_id for item in retired] == ["lc"]
    assert lifecycle.active_count == 0
    assert pool.total_free_time() > free_before
    pool.assert_disjoint_per_node()


def test_completion_factor_shortens_the_run(scheduled):
    job, window, pool = scheduled
    lifecycle = JobLifecycle()
    entry = lifecycle.start(job, window, now=0.0, completion_factor=0.5)
    assert entry.completes_at == window.start + window.runtime * 0.5
    # the full reservation is still released at (early) completion
    retired = lifecycle.retire_due(entry.completes_at, pool)
    assert len(retired) == 1
    pool.assert_disjoint_per_node()


def test_duplicate_start_raises(scheduled):
    job, window, pool = scheduled
    lifecycle = JobLifecycle()
    lifecycle.start(job, window, now=0.0)
    with pytest.raises(SchedulingError, match="already running"):
        lifecycle.start(job, window, now=1.0)


def test_bad_completion_factor_raises(scheduled):
    job, window, pool = scheduled
    lifecycle = JobLifecycle()
    for factor in (0.0, -0.5, 1.5):
        with pytest.raises(SchedulingError, match="completion_factor"):
            lifecycle.start(job, window, now=0.0, completion_factor=factor)


def test_retirement_order_is_deterministic(uniform_pool):
    lifecycle = JobLifecycle()
    windows = []
    for index in range(2):
        job = Job(
            f"lc-{index}",
            ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0),
        )
        window = AMP().select(job, uniform_pool)
        assert window is not None
        uniform_pool.commit_window(window)
        lifecycle.start(job, window, now=0.0)
        windows.append(window)
    retired = lifecycle.retire_due(1e9, uniform_pool)
    assert [item.job.job_id for item in retired] == [
        item.job.job_id
        for item in sorted(retired, key=lambda it: (it.completes_at, it.job.job_id))
    ]
    assert lifecycle.active_count == 0
    uniform_pool.assert_disjoint_per_node()


# ----------------------------------------------------------------------
# Retirement tells ``release`` the time the broker trims to next
# ----------------------------------------------------------------------
@pytest.fixture
def rough_edged(heterogeneous_pool):
    """A committed window whose legs run 10 (node 0) and 5 (node 1)."""
    job = Job("lc", ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0))
    by_node = heterogeneous_pool.by_node()
    window = Window(
        start=0.0,
        slots=tuple(
            WindowSlot.for_request(by_node[node_id][0], job.request)
            for node_id in (0, 1)
        ),
    )
    assert [ws.required_time for ws in window.slots] == [10.0, 5.0]
    heterogeneous_pool.commit_window(window)
    untouched = {
        node_id: spans
        for node_id, spans in free_spans(heterogeneous_pool).items()
        if node_id > 1
    }
    return job, window, heterogeneous_pool, untouched


def test_retiring_at_completion_coalesces_the_longest_leg(rough_edged):
    job, window, pool, untouched = rough_edged
    lifecycle = JobLifecycle()
    entry = lifecycle.start(job, window, now=0.0)
    assert len(lifecycle.retire_due(entry.completes_at, pool)) == 1
    # Node 0's leg ends exactly at ``now`` and is merged back; node 1's
    # ended 5 earlier and is not inserted for the trim to delete again.
    assert free_spans(pool) == {0: [(0.0, 100.0)], 1: [(5.0, 100.0)], **untouched}
    pool.trim_before(entry.completes_at)
    assert free_spans(pool)[0] == free_spans(pool)[1] == [(10.0, 100.0)]


def test_early_finish_returns_the_future_tail(rough_edged):
    job, window, pool, untouched = rough_edged
    lifecycle = JobLifecycle()
    entry = lifecycle.start(job, window, now=0.0, completion_factor=0.5)
    assert entry.completes_at == 5.0
    assert len(lifecycle.retire_due(entry.completes_at, pool)) == 1
    # Both legs reach ``now``: the reserved but unused [5, 10) of node 0
    # is free again.
    assert free_spans(pool) == {0: [(0.0, 100.0)], 1: [(0.0, 100.0)], **untouched}
    pool.trim_before(entry.completes_at)
    assert free_spans(pool)[0] == free_spans(pool)[1] == [(5.0, 100.0)]


# ----------------------------------------------------------------------
# Swap and withdraw: the registry half of a rebooking
# ----------------------------------------------------------------------
def test_replace_swaps_the_window_and_keeps_the_schedule_time(rough_edged):
    job, window, pool, _ = rough_edged
    lifecycle = JobLifecycle()
    original = lifecycle.start(job, window, now=3.0)
    # The repaired window keeps the start but trades node 1's leg (runs 5)
    # for one on the slower node 4 (runs 20): the job completes later.
    substitute = WindowSlot.for_request(pool.by_node()[4][0], job.request)
    repaired = Window(start=window.start, slots=(window.slots[0], substitute))
    assert repaired.runtime == 20.0 != window.runtime
    entry = lifecycle.replace(job.job_id, repaired, completion_factor=0.5)
    assert lifecycle.get(job.job_id) is entry
    assert (entry.job, entry.window) == (job, repaired)
    assert entry.scheduled_at == original.scheduled_at == 3.0
    assert entry.completes_at == repaired.start + repaired.runtime * 0.5
    assert lifecycle.active_count == 1
    assert lifecycle.next_completion() == entry.completes_at


def test_replace_of_an_unknown_job_raises(rough_edged):
    job, window, _, _ = rough_edged
    with pytest.raises(SchedulingError, match="not running"):
        JobLifecycle().replace(job.job_id, window)


def test_cancel_drops_the_entry_without_touching_the_pool(rough_edged):
    job, window, pool, _ = rough_edged
    lifecycle = JobLifecycle()
    entry = lifecycle.start(job, window, now=0.0)
    held = pool_state(pool)
    assert lifecycle.cancel(job.job_id) is entry
    assert lifecycle.active_count == 0
    assert lifecycle.next_completion() is None
    # The caller owns the release: nothing came back, nothing retires later.
    assert pool_state(pool) == held
    assert lifecycle.retire_due(1e9, pool) == []
    with pytest.raises(SchedulingError, match="not running"):
        lifecycle.cancel(job.job_id)



# ----------------------------------------------------------------------
# The node index against a rebuild from the entries
# ----------------------------------------------------------------------
NODES = range(8)


class DiscardingPool:
    """Stands in for the pool: the index only needs retirement to happen."""

    def release(self, window, floor=None):
        pass


def window_on(node_ids, start: float, runtime: float) -> Window:
    return Window(
        start=start,
        slots=tuple(
            WindowSlot(
                slot=make_slot(node_id, start, start + 100.0),
                required_time=runtime,
                cost=1.0,
            )
            for node_id in node_ids
        ),
    )


def assert_index_matches_entries(lifecycle: JobLifecycle) -> None:
    """``active_nodes`` / ``entries_on`` equal what every entry says."""
    rebuilt: dict[int, list] = {}
    for entry in lifecycle.entries():
        for node_id in entry.window.nodes():
            rebuilt.setdefault(node_id, []).append(entry)
    assert set(lifecycle.active_nodes()) == set(rebuilt)
    for node_id in NODES:
        assert lifecycle.entries_on(node_id) == rebuilt.get(node_id, [])


node_sets = st.sets(st.sampled_from(NODES), min_size=1, max_size=4)
job_ids = st.sampled_from([f"j{index}" for index in range(6)])


class NodeIndexMachine(RuleBasedStateMachine):
    """Random start / replace / cancel / retire_due sequences; the index
    must equal a rebuild after every step."""

    def __init__(self):
        super().__init__()
        self.lifecycle = JobLifecycle()
        self.now = 0.0

    @rule(
        job_id=job_ids,
        nodes=node_sets,
        delay=st.integers(0, 20),
        runtime=st.integers(1, 30),
    )
    def start(self, job_id, nodes, delay, runtime):
        if self.lifecycle.get(job_id) is not None:
            return
        job = Job(job_id, ResourceRequest(node_count=len(nodes), reservation_time=1.0))
        window = window_on(sorted(nodes), self.now + delay, float(runtime))
        self.lifecycle.start(job, window, now=self.now)

    @rule(job_id=job_ids, nodes=node_sets, runtime=st.integers(1, 30))
    def replace(self, job_id, nodes, runtime):
        entry = self.lifecycle.get(job_id)
        if entry is None or set(nodes) == set(entry.window.nodes()):
            return
        window = window_on(sorted(nodes), entry.window.start, float(runtime))
        self.lifecycle.replace(job_id, window)

    @rule(job_id=job_ids)
    def cancel(self, job_id):
        if self.lifecycle.get(job_id) is not None:
            self.lifecycle.cancel(job_id)

    @rule(step=st.integers(0, 25))
    def retire_due(self, step):
        self.now += step
        self.lifecycle.retire_due(self.now, DiscardingPool())

    @invariant()
    def index_matches_entries(self):
        assert_index_matches_entries(self.lifecycle)


TestNodeIndexMachine = NodeIndexMachine.TestCase
TestNodeIndexMachine.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


def test_entries_on_is_a_fresh_list_in_entries_order(rough_edged):
    job, window, _, _ = rough_edged
    lifecycle = JobLifecycle()
    lifecycle.start(job, window, now=0.0)
    early = Job("early", job.request)
    lifecycle.start(early, window_on([1, 5], window.start - 1.0, 5.0), now=0.0)
    on_node_1 = lifecycle.entries_on(1)
    assert [entry.job.job_id for entry in on_node_1] == ["early", "lc"]
    on_node_1.clear()
    assert len(lifecycle.entries_on(1)) == 2
    assert sorted(lifecycle.active_nodes()) == [0, 1, 5]
    assert lifecycle.entries_on(7) == []
    assert_index_matches_entries(lifecycle)
