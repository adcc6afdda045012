"""The slot lifecycle: coalescing add, span commits, release, trimming.

These are the pool operations the broker service leans on to run
indefinitely: ``add`` merges touching same-node spans so repeated
cut/release cycles do not fragment the pool, ``commit_window`` cuts by
span containment, ``release`` is the exact inverse of a cut, and
``trim_before`` advances the virtual clock.
"""

from __future__ import annotations

import pytest

from repro.core.algorithms import AMP
from repro.model import Job, ResourceRequest, Slot, SlotPool, Window, WindowSlot
from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON

from tests.conftest import make_node, make_slot, pool_state


def pool_spans(pool: SlotPool) -> dict[int, list[tuple[float, float]]]:
    return {
        node_id: [(slot.start, slot.end) for slot in slots]
        for node_id, slots in pool.by_node().items()
    }


# ----------------------------------------------------------------------
# Coalescing add
# ----------------------------------------------------------------------
def test_add_coalesces_touching_same_node_slots():
    node = make_node(1)
    pool = SlotPool.from_slots([Slot(node, 0.0, 10.0), Slot(node, 10.0, 25.0)])
    assert len(pool) == 1
    assert pool_spans(pool) == {1: [(0.0, 25.0)]}
    pool.assert_disjoint_per_node()


def test_add_coalesces_both_neighbours():
    node = make_node(1)
    pool = SlotPool.from_slots([Slot(node, 0.0, 10.0), Slot(node, 20.0, 30.0)])
    assert len(pool) == 2
    pool.add(Slot(node, 10.0, 20.0))
    assert pool_spans(pool) == {1: [(0.0, 30.0)]}


def test_add_keeps_gapped_and_cross_node_slots_apart():
    pool = SlotPool.from_slots(
        [make_slot(1, 0.0, 10.0), make_slot(1, 11.0, 20.0), make_slot(2, 10.0, 30.0)]
    )
    # gap of 1 on node 1 and a different node id must never merge
    assert len(pool) == 3


@pytest.mark.parametrize(
    "span",
    [(5.0, 15.0), (12.0, 18.0), (-5.0, 3.0), (0.0, 10.0), (9.0, 31.0), (10.0, 15.0)],
    ids=["across-right", "inside", "across-left", "duplicate", "over-both", "touch-and-overlap"],
)
def test_add_of_an_overlapping_slot_raises_and_leaves_pool_unchanged(span):
    """An overlap of more than the gap is refused before any neighbour
    is merged away: buckets, entries and generation are as they were."""
    node = make_node(1)
    pool = SlotPool.from_slots(
        [Slot(node, 0.0, 10.0), Slot(node, 11.0, 20.0), make_slot(2, 0.0, 10.0)]
    )
    before = (pool_state(pool), pool._store.entries(), pool.generation)
    with pytest.raises(AllocationError, match="overlaps free slot"):
        pool.add(Slot(node, *span))
    assert (pool_state(pool), pool._store.entries(), pool.generation) == before
    pool.assert_disjoint_per_node()


def test_add_within_the_gap_of_an_overlap_still_coalesces():
    """Overlapping a neighbour by no more than ``COALESCE_GAP`` is
    touching, not overlapping: the slots merge."""
    node = make_node(1)
    pool = SlotPool.from_slots([Slot(node, 0.0, 10.0)])
    pool.add(Slot(node, 10.0 - TIME_EPSILON / 2, 20.0))
    assert pool.ordered() == [Slot(node, 0.0, 20.0)]


# ----------------------------------------------------------------------
# Cut / release round trip
# ----------------------------------------------------------------------
@pytest.fixture
def window_and_pool(uniform_pool):
    job = Job("rt", ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0))
    window = AMP().select(job, uniform_pool)
    assert window is not None
    return window, uniform_pool


def test_release_is_inverse_of_cut(window_and_pool):
    window, pool = window_and_pool
    before = pool_spans(pool)
    pool.commit_window(window)
    assert pool_spans(pool) != before
    pool.release(window)
    assert pool_spans(pool) == before
    pool.assert_disjoint_per_node()


def test_release_is_inverse_of_commit(window_and_pool):
    window, pool = window_and_pool
    before = pool_spans(pool)
    free_before = pool.total_free_time()
    pool.commit_window(window)
    assert pool.total_free_time() == pytest.approx(free_before - window.processor_time)
    pool.release(window)
    assert pool_spans(pool) == before
    assert pool.total_free_time() == pytest.approx(free_before)


def test_double_release_raises_and_leaves_pool_unchanged(window_and_pool):
    window, pool = window_and_pool
    pool.commit_window(window)
    pool.release(window)
    spans = pool_spans(pool)
    with pytest.raises(AllocationError, match="double release"):
        pool.release(window)
    assert pool_spans(pool) == spans


def test_repeated_cut_release_does_not_fragment(window_and_pool):
    window, pool = window_and_pool
    before = pool_spans(pool)
    size = len(pool)
    for _ in range(25):
        pool.commit_window(window)
        pool.release(window)
    assert len(pool) == size
    assert pool_spans(pool) == before


def test_commit_window_after_earlier_cut_relocates_by_span(uniform_pool):
    """Committing two windows picked on one snapshot must both succeed."""
    job = Job("a", ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0))
    snapshot = uniform_pool.copy()
    first = AMP().select(job, snapshot)
    snapshot.commit_window(first)
    second = AMP().select(job, snapshot)
    assert first is not None and second is not None
    # both windows reference slot objects of the *snapshot*; committing the
    # first replaces the shared pool's slots, so the second must be located
    # by span containment rather than identity.
    uniform_pool.commit_window(first)
    uniform_pool.commit_window(second)
    uniform_pool.assert_disjoint_per_node()
    uniform_pool.release(second)
    uniform_pool.release(first)
    assert pool_spans(uniform_pool) == {i: [(0.0, 100.0)] for i in range(4)}


def test_commit_window_without_containing_slot_raises(uniform_pool):
    job = Job("a", ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0))
    window = AMP().select(job, uniform_pool)
    uniform_pool.commit_window(window)
    booked = pool_state(uniform_pool)
    with pytest.raises(AllocationError, match="contains the"):
        uniform_pool.commit_window(window)
    assert pool_state(uniform_pool) == booked


def test_commit_window_with_a_homeless_leg_leaves_pool_unchanged(uniform_pool):
    """All or nothing: the first leg has a host, the second does not —
    the refusal must not have cut the first."""
    housed = uniform_pool.ordered()[0]
    homeless = make_slot(9, 0.0, 100.0)  # node 9 has no free time here
    window = Window(
        start=10.0,
        slots=tuple(
            WindowSlot(slot=slot, required_time=5.0, cost=10.0)
            for slot in (housed, homeless)
        ),
    )
    before = pool_state(uniform_pool)
    with pytest.raises(AllocationError, match="node 9 contains the"):
        uniform_pool.commit_window(window)
    assert pool_state(uniform_pool) == before


def shifted(window: Window, start: float) -> Window:
    """The same legs on the same nodes, starting at ``start``."""
    return Window(start=start, slots=window.slots)


def test_a_swap_may_reuse_the_released_spans(window_and_pool):
    """Release then commit is a rebooking: the new window overlaps the
    old one, which only fits because the old spans came back first."""
    window, pool = window_and_pool
    pool.commit_window(window)
    overlapping = shifted(window, window.start + window.runtime / 2)
    with pytest.raises(AllocationError):
        pool.commit_window(overlapping)
    pool.release(window)
    pool.commit_window(overlapping)
    pool.assert_disjoint_per_node()
    pool.release(overlapping)
    assert pool_spans(pool) == {i: [(0.0, 100.0)] for i in range(4)}


def test_a_refused_second_commit_leaves_the_first_intact(window_and_pool):
    window, pool = window_and_pool
    pool.commit_window(window)
    booked = pool_state(pool)
    # The rival's first leg is free, its second overlaps the booking:
    # the refusal must not have cut the free one.
    free_node = next(i for i in range(4) if i not in window.nodes())
    free_leg = WindowSlot(
        slot=make_slot(free_node, 0.0, 100.0), required_time=5.0, cost=10.0
    )
    rival = Window(start=window.start, slots=(free_leg, window.slots[0]))
    with pytest.raises(AllocationError):
        pool.commit_window(rival)
    assert pool_state(pool) == booked
    # the first booking is still there to be withdrawn, exactly once
    pool.release(window)
    assert pool_spans(pool) == {i: [(0.0, 100.0)] for i in range(4)}


# ----------------------------------------------------------------------
# trim_before
# ----------------------------------------------------------------------
def test_trim_before_drops_and_truncates():
    pool = SlotPool.from_slots(
        [make_slot(1, 0.0, 10.0), make_slot(2, 5.0, 40.0), make_slot(3, 30.0, 50.0)]
    )
    changed = pool.trim_before(20.0)
    assert changed == 2  # node 1 dropped, node 2 truncated
    assert pool_spans(pool) == {2: [(20.0, 40.0)], 3: [(30.0, 50.0)]}


def test_trim_before_respects_min_usable_length():
    """The usable length is a slot's: a tail of ``TIME_EPSILON`` or less
    is dropped, one of two is kept."""
    pool = SlotPool.from_slots([make_slot(1, 0.0, 21.0), make_slot(2, 0.0, 22.0)])
    pool.trim_before(21.0 - TIME_EPSILON)
    assert pool_spans(pool) == {2: [(21.0 - TIME_EPSILON, 22.0)]}
    pool.trim_before(22.0 - 2 * TIME_EPSILON)
    assert pool_spans(pool) == {2: [(22.0 - 2 * TIME_EPSILON, 22.0)]}


def test_trim_before_noop_when_everything_is_future():
    pool = SlotPool.from_slots([make_slot(1, 10.0, 20.0)])
    assert pool.trim_before(5.0) == 0
    assert pool_spans(pool) == {1: [(10.0, 20.0)]}
