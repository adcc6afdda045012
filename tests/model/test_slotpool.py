"""Unit tests for the ordered slot pool and window cutting."""

import numpy as np
import pytest

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import (
    AllocationError,
    ResourceRequest,
    SlotPool,
    Window,
    WindowSlot,
)
from repro.core import AMP, CSA
from repro.core.algorithms.csa import rerun_alternatives
from repro.model.slot import TIME_EPSILON
from tests.conftest import consume_window, make_slot, off_shape_pool, pool_state
from tests.strategies import EDGE_OF_COMMIT


def window_for(slot, reservation=20.0, start=None):
    request = ResourceRequest(node_count=1, reservation_time=reservation)
    ws = WindowSlot.for_request(slot, request)
    return Window(start=slot.start if start is None else start, slots=(ws,))


class TestOrdering:
    def test_iteration_is_start_ordered(self):
        slots = [
            make_slot(0, 30.0, 40.0),
            make_slot(1, 0.0, 10.0),
            make_slot(2, 15.0, 25.0),
        ]
        pool = SlotPool.from_slots(slots)
        starts = [slot.start for slot in pool]
        assert starts == sorted(starts)

    def test_add_keeps_order(self):
        pool = SlotPool.from_slots([make_slot(0, 10.0, 20.0)])
        pool.add(make_slot(1, 0.0, 5.0))
        assert [slot.start for slot in pool] == [0.0, 10.0]

    def test_len_and_contains(self):
        slot = make_slot(0, 0.0, 10.0)
        pool = SlotPool.from_slots([slot])
        assert len(pool) == 1
        assert slot in pool
        assert make_slot(1, 0.0, 10.0) not in pool


class TestRemove:
    def test_remove_existing(self):
        slot = make_slot(0, 0.0, 10.0)
        pool = SlotPool.from_slots([slot])
        pool.remove(slot)
        assert len(pool) == 0

    def test_remove_missing_raises(self):
        pool = SlotPool.from_slots([make_slot(0, 0.0, 10.0)])
        with pytest.raises(AllocationError):
            pool.remove(make_slot(1, 0.0, 10.0))

    def test_remove_distinguishes_equal_keys(self):
        # Two different nodes, same sort key except node id.
        a = make_slot(0, 0.0, 10.0)
        b = make_slot(1, 0.0, 10.0)
        pool = SlotPool.from_slots([a, b])
        pool.remove(b)
        assert a in pool
        assert b not in pool


class TestCutWindow:
    def test_split_mode_reinserts_remainders(self):
        slot = make_slot(0, 0.0, 100.0, performance=4.0)  # task(20) -> 5 units
        pool = SlotPool.from_slots([slot])
        pool.commit_window(window_for(slot))
        remaining = pool.ordered()
        assert len(remaining) == 1
        assert (remaining[0].start, remaining[0].end) == (5.0, 100.0)

    def test_split_mode_mid_slot_produces_two_remainders(self):
        slot = make_slot(0, 0.0, 100.0, performance=4.0)
        pool = SlotPool.from_slots([slot])
        pool.commit_window(window_for(slot, start=40.0))
        spans = [(s.start, s.end) for s in pool.ordered()]
        assert spans == [(0.0, 40.0), (45.0, 100.0)]

    def test_consume_mode_drops_whole_slot(self):
        """CSA's ``consume`` cutting removes a used slot whole: one
        alternative from a slot that ``split`` cutting reuses 20 times."""
        slot = make_slot(0, 0.0, 100.0, performance=4.0)  # task(20) -> 5 units
        pool = SlotPool.from_slots([slot])
        request = ResourceRequest(node_count=1, reservation_time=20.0)
        consumed = rerun_alternatives(AMP(), request, pool, cut_mode="consume")
        split = rerun_alternatives(AMP(), request, pool, cut_mode="split")
        assert [window.start for window in consumed] == [0.0]
        assert len(split) == 20
        assert pool.ordered() == [slot]  # the search cuts a copy

    def test_unknown_mode_rejected(self):
        """The cutting policy is CSA's: a third mode is refused there."""
        with pytest.raises(ValueError, match="unknown cut mode"):
            CSA(cut_mode="shred")

    def test_unknown_mode_rejected_by_the_procedure_too(self):
        """``rerun_alternatives`` refuses a misspelled mode instead of
        consuming, before it searches."""
        pool = SlotPool.from_slots([make_slot(0, 0.0, 100.0)])
        request = ResourceRequest(node_count=1, reservation_time=20.0)
        with pytest.raises(ValueError, match="unknown cut mode 'Split'"):
            rerun_alternatives(AMP(), request, pool, cut_mode="Split")

    def test_cut_missing_slot_raises(self):
        slot = make_slot(0, 0.0, 100.0)
        pool = SlotPool.from_slots([make_slot(1, 0.0, 100.0)])
        with pytest.raises(AllocationError):
            pool.commit_window(window_for(slot))

    def test_cut_window_not_fitting_raises(self):
        slot = make_slot(0, 0.0, 10.0, performance=4.0)  # task needs 5 units
        pool = SlotPool.from_slots([slot])
        bad = window_for(slot, start=7.0)  # [7, 12) overflows the slot
        with pytest.raises(AllocationError):
            pool.commit_window(bad)

    def test_split_respects_min_usable_length(self):
        # Task 5 units from 0: the [5, 5 + ε/2) remainder is not a slot.
        slot = make_slot(0, 0.0, 5.0 + TIME_EPSILON / 2, performance=4.0)
        pool = SlotPool.from_slots([slot])
        pool.commit_window(window_for(slot))
        assert len(pool) == 0

    def test_total_free_time_accounting_split(self):
        slot = make_slot(0, 0.0, 100.0, performance=4.0)
        pool = SlotPool.from_slots([slot])
        before = pool.total_free_time()
        pool.commit_window(window_for(slot))
        assert pool.total_free_time() == pytest.approx(before - 5.0)


class TestSearchThenCommit:
    """A window any search returns commits: the search, ``validate``
    and ``commit_window`` read one fit test."""

    @staticmethod
    def windows(pool, request):
        for policy in ("first", "cheapest"):
            window = AMP(policy).select(request, pool)
            if window is not None:
                yield window
            for mode in ("split", "consume"):
                yield from CSA(
                    max_alternatives=4, cut_mode=mode, amp_policy=policy
                ).find_alternatives(request, pool)

    @pytest.mark.parametrize("partner", [False, True], ids=["alone", "partnered"])
    def test_every_window_validates_and_commits(self, partner):
        slots = list(EDGE_OF_COMMIT.slots)
        if partner:
            slots.append(make_slot(2, 0.0, 1e8, performance=1e9, price=5.0))
        pool = SlotPool.from_slots(slots)
        request = EDGE_OF_COMMIT.request
        found = list(self.windows(pool, request))
        for window in found:
            window.validate(request)
            pool.copy().commit_window(window)
            if all(leg.slot in pool for leg in window.slots):
                consume_window(pool.copy(), window)
        # Node 0 does not fit from its own start, so no search uses it.
        assert all(0 not in window.nodes() for window in found)
        assert bool(found) == partner


class TestCopyAndInvariants:
    def test_copy_is_independent(self):
        slot = make_slot(0, 0.0, 100.0)
        pool = SlotPool.from_slots([slot])
        twin = pool.copy()
        twin.remove(slot)
        assert len(pool) == 1
        assert len(twin) == 0

    def test_read_lists_are_the_callers(self):
        """``ordered()`` and ``by_node()`` hand out new lists: mutating
        them leaves the pool, whose order lives in a shared store list,
        as it was."""
        slots = [make_slot(0, 0.0, 10.0), make_slot(0, 20.0, 30.0), make_slot(1, 0.0, 5.0)]
        pool = SlotPool.from_slots(slots)
        before = pool_state(pool)
        ordered = pool.ordered()
        ordered.pop()
        ordered.reverse()
        groups = pool.by_node()
        groups[0].clear()
        groups[1].append(make_slot(1, 50.0, 60.0))
        del groups[1]
        assert pool.ordered() is not pool.ordered()
        assert pool_state(pool) == before

    def test_iteration_sees_the_pool_as_it_was(self):
        """``iter(pool)`` yields the pool as it was when ``iter`` was
        called, so a loop may remove what it visits."""
        slots = [make_slot(0, 0.0, 10.0), make_slot(1, 5.0, 15.0), make_slot(2, 20.0, 30.0)]
        pool = SlotPool.from_slots(slots)
        visited = []
        for slot in pool:
            pool.remove(slot)
            visited.append(slot)
        assert visited == slots
        assert len(pool) == 0
        assert pool.ordered() == []
        pool = SlotPool.from_slots(slots)
        walk = iter(pool)
        pool.add(make_slot(3, 1.0, 2.0))
        pool.remove(slots[2])
        assert list(walk) == slots

    def test_by_node_groups(self):
        slots = [make_slot(0, 0.0, 10.0), make_slot(0, 20.0, 30.0), make_slot(1, 0.0, 5.0)]
        pool = SlotPool.from_slots(slots)
        groups = pool.by_node()
        assert sorted(groups) == [0, 1]
        assert len(groups[0]) == 2

    def test_node_count(self):
        slots = [make_slot(0, 0.0, 10.0), make_slot(0, 20.0, 30.0), make_slot(1, 0.0, 5.0)]
        assert SlotPool.from_slots(slots).node_count() == 2

    def test_assert_disjoint_per_node_passes(self):
        pool = SlotPool.from_slots(
            [make_slot(0, 0.0, 10.0), make_slot(0, 10.0, 30.0)]
        )
        pool.assert_disjoint_per_node()

    def test_assert_disjoint_per_node_detects_overlap(self):
        slots = [make_slot(0, 0.0, 10.0), make_slot(0, 5.0, 30.0)]
        with pytest.raises(AllocationError, match="overlaps free slot"):
            SlotPool.from_slots(slots)
        with pytest.raises(AllocationError, match="overlap or touch"):
            off_shape_pool(slots).assert_disjoint_per_node()

    @pytest.mark.parametrize("gap", [0.0, TIME_EPSILON / 2])
    def test_assert_disjoint_per_node_refuses_touching_slots(self, gap):
        """The check is the pool's whole shape: two slots of one node
        within ``COALESCE_GAP`` of each other are refused too."""
        slots = [make_slot(0, 0.0, 10.0), make_slot(0, 10.0 + gap, 30.0)]
        with pytest.raises(AllocationError, match="overlap or touch"):
            off_shape_pool(slots).assert_disjoint_per_node()
        SlotPool.from_slots(slots).assert_disjoint_per_node()  # merged
        apart = [slots[0], make_slot(0, 10.0 + 2 * TIME_EPSILON, 30.0)]
        off_shape_pool(apart).assert_disjoint_per_node()


class TestBulkBuild:
    """``from_slots`` in bulk against one ``add`` per slot."""

    @staticmethod
    def shuffled_slots(nodes=7, shortest=TIME_EPSILON):
        # Spans one unit apart (nothing to merge) and one start shared
        # by several nodes; spans shorter than ``shortest`` are left
        # out, which widens the gap in each node's run instead.
        slots = []
        for node_id in range(nodes):
            cursor = float(node_id % 3)
            for length in (12.0, 4.0, 30.0, 5.0):
                if length >= shortest:
                    slots.append(make_slot(node_id, cursor, cursor + length))
                cursor += length + 1.0
        order = np.random.default_rng(5).permutation(len(slots))
        return [slots[index] for index in order]

    # 28 or 48 slots, either side of a power of two: the bulk load is
    # one batch of edits, the add-built pool one edit per slot.
    @pytest.mark.parametrize("nodes", [7, 12])
    @pytest.mark.parametrize("shortest", [TIME_EPSILON, 5.0])
    def test_bulk_built_pool_equals_add_built_pool(self, shortest, nodes):
        slots = self.shuffled_slots(nodes, shortest)
        added = SlotPool()
        for slot in slots:
            added.add(slot)
        bulk = SlotPool.from_slots(slots)
        assert len(bulk) == (4 if shortest < 5.0 else 3) * nodes
        assert bulk == added  # ordered entries, per-node buckets
        assert [id(slot) for slot in bulk] == [id(slot) for slot in added]
        assert bulk.generation == added.generation
        ours, theirs = bulk.as_arrays(), added.as_arrays()
        for column in ("start", "end", "node_row", "node_id", "performance", "price"):
            assert np.array_equal(getattr(ours, column), getattr(theirs, column))
        assert ours.slot_objects() == theirs.slot_objects()

    def test_bulk_built_pool_mutates_like_any_other(self):
        slots = self.shuffled_slots()
        bulk = SlotPool.from_slots(slots)
        added = SlotPool()
        for slot in slots:
            added.add(slot)
        for pool in (bulk, added):
            pool.remove(slots[3])
            pool.trim_before(10.0)
            pool.add(make_slot(9, 2.0, 8.0))
        assert bulk == added
        assert np.array_equal(bulk.as_arrays().start, added.as_arrays().start)
        assert np.array_equal(bulk.as_arrays().node_row, added.as_arrays().node_row)


class TestBulkSelection:
    """``from_slots`` picks bulk or per-slot building from its input."""

    def test_generated_environment_is_bulk_loaded(self, monkeypatch):
        # A timeline's free gaps are separated by busy chunks, so no two
        # slots of a node are neighbours and nothing could coalesce.
        slots = EnvironmentGenerator(
            EnvironmentConfig(node_count=100, seed=2013)
        ).generate().slots()
        added = SlotPool()
        for slot in slots:
            added.add(slot)

        def no_add(self, slot):
            raise AssertionError("the cold pool is built per slot again")

        monkeypatch.setattr(SlotPool, "add", no_add)
        pool = SlotPool.from_slots(slots)
        assert len(pool) == len(slots) > 400
        assert pool_state(pool) == pool_state(added)
        assert pool.generation == added.generation

    def test_touching_slots_are_still_merged(self):
        slots = [
            make_slot(1, 40.0, 50.0),
            make_slot(0, 10.0, 20.0),
            make_slot(0, 0.0, 10.0),
        ]
        pool = SlotPool.from_slots(slots)
        assert pool.ordered() == [make_slot(0, 0.0, 20.0), make_slot(1, 40.0, 50.0)]
        added = SlotPool()
        for slot in slots:
            added.add(slot)
        assert pool_state(pool) == pool_state(added)


class TestEpsilonRules:
    """Single-epsilon discipline on the time axis."""

    def test_coalesce_gap_is_single_epsilon(self):
        pool = SlotPool.from_slots([make_slot(0, 0.0, 10.0)])
        pool.add(make_slot(0, 10.0 + TIME_EPSILON / 2.0, 20.0))
        assert len(pool) == 1  # within one epsilon: merged

        pool = SlotPool.from_slots([make_slot(0, 0.0, 10.0)])
        pool.add(make_slot(0, 10.0 + 2.0 * TIME_EPSILON, 20.0))
        assert len(pool) == 2  # beyond one epsilon: kept apart
