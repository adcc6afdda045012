"""The per-node index must stay consistent with the flat slot list
through every mutation path (add, coalesce, remove, cut, commit,
release, trim), and the indexed queries must match their old
whole-pool-scan semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import AllocationError, ResourceRequest, Slot, SlotPool
from repro.model.window import Window, WindowSlot
from tests.conftest import make_node, make_slot


def assert_index_consistent(pool: SlotPool) -> None:
    """The invariant every mutation must preserve."""
    flat = pool.ordered()
    grouped: dict[int, list[Slot]] = {}
    for slot in flat:
        grouped.setdefault(slot.node.node_id, []).append(slot)
    indexed = pool.by_node()
    assert indexed == grouped
    assert pool.node_count() == len(grouped)
    assert sum(len(bucket) for bucket in indexed.values()) == len(pool)
    for slot in flat:
        assert slot in pool


def window_for(pool: SlotPool, request: ResourceRequest, start: float, node_ids):
    groups = pool.by_node()
    legs = []
    for node_id in node_ids:
        slot = groups[node_id][0]
        legs.append(WindowSlot.for_request(slot, request))
    return Window(start=start, slots=tuple(legs))


class TestIndexConsistency:
    def test_add_remove(self):
        pool = SlotPool()
        slots = [make_slot(i % 3, 10.0 * i, 10.0 * i + 8.0) for i in range(9)]
        for slot in slots:
            pool.add(slot)
            assert_index_consistent(pool)
        for slot in pool.ordered():
            pool.remove(slot)
            assert_index_consistent(pool)
        assert pool.node_count() == 0 and len(pool) == 0

    def test_coalesce_merges_within_node_only(self):
        pool = SlotPool()
        node_a = make_node(1)
        node_b = make_node(2)
        pool.add(Slot(node_a, 0.0, 10.0))
        pool.add(Slot(node_b, 10.0, 20.0))
        pool.add(Slot(node_a, 10.0, 20.0))  # touches node_a's slot, not node_b's
        assert_index_consistent(pool)
        assert pool.by_node()[1] == [Slot(node_a, 0.0, 20.0)]
        assert pool.by_node()[2] == [Slot(node_b, 10.0, 20.0)]

    def test_cut_commit_release_cycle(self):
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0)
        pool = SlotPool.from_slots(
            [make_slot(0, 0.0, 100.0), make_slot(1, 0.0, 100.0), make_slot(2, 0.0, 100.0)]
        )
        window = window_for(pool, request, 10.0, [0, 1])
        pool.commit_window(window)
        assert_index_consistent(pool)
        pool.release(window)
        assert_index_consistent(pool)
        # committed by span containment after an unrelated earlier commit
        other = window_for(pool, request, 40.0, [2])
        pool.commit_window(other)
        assert_index_consistent(pool)

    def test_release_overlap_detected_via_index(self):
        request = ResourceRequest(node_count=1, reservation_time=20.0, budget=1000.0)
        pool = SlotPool.from_slots([make_slot(0, 0.0, 100.0)])
        window = window_for(pool, request, 10.0, [0])
        from repro.model.errors import AllocationError

        with pytest.raises(AllocationError, match="double release"):
            pool.release(window)
        assert_index_consistent(pool)

    def test_trim_before_prefix_only(self):
        pool = SlotPool.from_slots(
            [make_slot(i, float(5 * i), float(5 * i) + 30.0) for i in range(10)]
        )
        # No slot ends by 22, so nothing is deleted; slots 0-4 read as
        # cut to start there.
        assert pool.trim_before(22.0) == 0
        assert len(pool._store.entries()) == 10
        assert_index_consistent(pool)
        assert all(slot.start >= 22.0 - 1e-9 for slot in pool)
        # idempotent second trim
        assert pool.trim_before(22.0) == 0
        assert_index_consistent(pool)

    def test_trim_drops_fully_past_slots(self):
        pool = SlotPool.from_slots(
            [make_slot(0, 0.0, 10.0), make_slot(1, 0.0, 50.0), make_slot(2, 30.0, 60.0)]
        )
        pool.trim_before(20.0)
        assert_index_consistent(pool)
        assert pool.node_count() == 2  # node 0's only slot is gone
        assert 1 in pool.by_node() and 2 in pool.by_node()

    def test_copy_is_independent(self):
        pool = SlotPool.from_slots([make_slot(0, 0.0, 50.0), make_slot(1, 0.0, 50.0)])
        twin = pool.copy()
        twin.remove(twin.ordered()[0])
        assert_index_consistent(pool)
        assert_index_consistent(twin)
        assert len(pool) == 2 and len(twin) == 1
        assert pool.node_count() == 2 and twin.node_count() == 1

    def test_randomized_mutation_storm(self):
        rng = np.random.default_rng(404)
        pool = SlotPool()
        nodes = [make_node(i) for i in range(6)]
        clock = 0.0
        for _ in range(200):
            action = rng.integers(0, 4)
            if action == 0 or len(pool) == 0:
                node = nodes[int(rng.integers(0, len(nodes)))]
                start = clock + float(rng.uniform(0.0, 40.0))
                try:
                    pool.add(Slot(node, start, start + float(rng.uniform(2.0, 30.0))))
                except AllocationError:
                    pass  # overlaps a slot of its node: refused, pool as it was
            elif action == 1:
                slots = pool.ordered()
                pool.remove(slots[int(rng.integers(0, len(slots)))])
            elif action == 2:
                clock += float(rng.uniform(0.0, 5.0))
                pool.trim_before(clock)
            else:
                slots = pool.ordered()
                victim = slots[int(rng.integers(0, len(slots)))]
                if victim.start >= clock and victim.length > 4.0:
                    request = ResourceRequest(
                        node_count=1, reservation_time=1.0, budget=1e9
                    )
                    leg = WindowSlot.for_request(victim, request)
                    if leg.fits_from(victim.start):
                        pool.commit_window(Window(start=victim.start, slots=(leg,)))
            assert_index_consistent(pool)
            pool.assert_disjoint_per_node()

    def test_contains_checks_exact_slot(self):
        pool = SlotPool.from_slots([make_slot(0, 0.0, 50.0)])
        assert make_slot(0, 0.0, 50.0) in pool
        assert make_slot(0, 0.0, 49.0) not in pool
        assert make_slot(1, 0.0, 50.0) not in pool
