"""Release / commit edge cases around ``trim_before``.

The broker's resilience layer releases committed windows *after* the
virtual clock has advanced (replan and abandon recoveries), so the pool
routinely sees releases whose neighbouring free slots were already
trimmed or truncated.  These tests pin the interplay down against the
per-node bucket index (:meth:`SlotPool.by_node`): a release re-inserts
the exact reserved span even when the clock has moved past part of it,
coalesces with truncated survivors, recreates buckets that trimming
emptied, and stays atomic when rejected as a double release.
"""

from __future__ import annotations

import pytest

from repro.model import Slot, SlotPool, Window, WindowSlot
from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON

from tests.conftest import make_node, make_slot, stored_spans


def spans_by_node(pool: SlotPool) -> dict[int, list[tuple[float, float]]]:
    return {
        node_id: [(slot.start, slot.end) for slot in slots]
        for node_id, slots in pool.by_node().items()
    }


def window_on(slots: list[Slot], start: float, required_time: float) -> Window:
    legs = tuple(
        WindowSlot(slot=slot, required_time=required_time, cost=1.0)
        for slot in slots
    )
    return Window(start=start, slots=legs)


def test_release_coalesces_with_partially_trimmed_neighbour():
    """A release merges with the leading fragment as the floor clamps it."""
    slot = make_slot(1, 0.0, 100.0)
    pool = SlotPool.from_slots([slot])
    window = window_on([slot], start=20.0, required_time=20.0)
    pool.commit_window(window)
    assert spans_by_node(pool) == {1: [(0.0, 20.0), (40.0, 100.0)]}

    assert pool.trim_before(10.0) == 0  # the fragment is clamped, not dead
    assert spans_by_node(pool) == {1: [(10.0, 20.0), (40.0, 100.0)]}

    pool.release(window)
    assert spans_by_node(pool) == {1: [(10.0, 100.0)]}
    assert stored_spans(pool) == {1: [(0.0, 100.0)]}
    pool.assert_disjoint_per_node()


def test_release_after_trim_past_fragment_leaves_gap():
    """A span released wholly before the floor is past free time: it is
    not stored, and it does not bridge the gap to the next slot."""
    slot = make_slot(1, 0.0, 100.0)
    pool = SlotPool.from_slots([slot])
    window = window_on([slot], start=20.0, required_time=20.0)
    pool.commit_window(window)

    # [0, 20) ends before the floor and is deleted; [40, 100) reads [45, 100).
    assert pool.trim_before(45.0) == 1
    assert spans_by_node(pool) == {1: [(45.0, 100.0)]}

    pool.release(window)
    assert spans_by_node(pool) == {1: [(45.0, 100.0)]}
    assert stored_spans(pool) == {1: [(40.0, 100.0)]}
    pool.assert_disjoint_per_node()


def test_release_onto_fully_trimmed_node_recreates_bucket():
    """Trimming deletes emptied node buckets; a late release restores one."""
    slot = make_slot(1, 0.0, 30.0)
    pool = SlotPool.from_slots([slot])
    window = window_on([slot], start=10.0, required_time=20.0)
    pool.commit_window(window)

    pool.trim_before(15.0)
    assert spans_by_node(pool) == {}
    assert pool._by_node == {}
    assert len(pool) == 0

    pool.release(window)
    assert spans_by_node(pool) == {1: [(15.0, 30.0)]}
    assert stored_spans(pool) == {1: [(10.0, 30.0)]}
    assert len(pool) == 1
    pool.assert_disjoint_per_node()


def test_double_release_after_trim_rejected_and_pool_unchanged():
    slot = make_slot(1, 0.0, 100.0)
    pool = SlotPool.from_slots([slot])
    window = window_on([slot], start=20.0, required_time=20.0)
    pool.commit_window(window)
    pool.trim_before(10.0)
    pool.release(window)

    before = spans_by_node(pool)
    with pytest.raises(AllocationError, match="double release"):
        pool.release(window)
    assert spans_by_node(pool) == before


def test_rejected_multi_leg_release_touches_no_bucket():
    """The overlap pre-check runs for every leg before any span is added."""
    slot_a = make_slot(1, 0.0, 100.0)
    slot_b = make_slot(2, 0.0, 100.0)
    pool = SlotPool.from_slots([slot_a, slot_b])
    window = window_on([slot_a, slot_b], start=20.0, required_time=20.0)
    pool.commit_window(window)
    pool.release(window)

    # Re-open only node 1's span: its leg would now release cleanly, but
    # node 2's leg overlaps free time, so the whole release must fail
    # without re-inserting node 1's span.
    pool.commit_window(window_on([slot_a], start=20.0, required_time=20.0))
    before = spans_by_node(pool)
    assert before[1] == [(0.0, 20.0), (40.0, 100.0)]

    with pytest.raises(AllocationError, match="node 2"):
        pool.release(window)
    assert spans_by_node(pool) == before
    pool.assert_disjoint_per_node()


def test_trim_drops_subthreshold_truncated_tail():
    """A tail of at most ``TIME_EPSILON`` is not a slot: the trim drops it."""
    node = make_node(1)
    pool = SlotPool()
    pool.add(Slot(node, 0.0, 30.0))

    assert pool.trim_before(30.0 - TIME_EPSILON / 2) == 1
    assert spans_by_node(pool) == {}


def test_commit_window_raises_when_trim_ate_the_span():
    """After the floor passes a span's start, no host slot contains it."""
    slot = make_slot(1, 0.0, 100.0)
    pool = SlotPool.from_slots([slot])
    pool.trim_before(25.0)

    window = window_on([slot], start=20.0, required_time=20.0)
    with pytest.raises(AllocationError, match="reserved span"):
        pool.commit_window(window)
    # The failed commit must not have removed the trimmed slot.
    assert spans_by_node(pool) == {1: [(25.0, 100.0)]}


@pytest.mark.parametrize("base", [0.0, 1e9], ids=["zero", "1e9"])
def test_trim_sorts_a_slot_starting_at_the_floor_among_the_cut_ones(base):
    """Above 2**23 one ulp of a time exceeds twice ``TIME_EPSILON``, so
    ``floor + TIME_EPSILON`` is the floor itself.  A slot starting there
    still sorts among the slots the trim cuts to start there (by end),
    and the trimmed pool equals a rebuild of its slots."""
    floor = base + 3.0
    pool = SlotPool.from_slots(
        [
            make_slot(0, base + 1.0, base + 2.0),
            make_slot(0, floor, base + 4.0),
            make_slot(1, base + 1.0, base + 1001.0),
            make_slot(2, base + 1.0, base + 1001.0),
        ]
    )
    pool.trim_before(floor)
    slots = pool.ordered()
    assert slots == sorted(slots, key=Slot.sort_key)
    assert [slot.node.node_id for slot in slots] == [0, 1, 2]
    assert pool.as_arrays().start.tolist() == [floor] * 3
    for slot in slots:
        twin = pool.copy()
        twin.remove(slot)
        assert slot not in twin
