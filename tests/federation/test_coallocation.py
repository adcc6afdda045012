"""Cross-shard co-allocation: two-phase commit, rollback, shard death.

The headline law: a failed commit — or a shard death mid-flight — never
leaks node-seconds.  Every committed leg is either released back to a
live pool or explicitly accounted as forfeited.
"""

from __future__ import annotations

import pytest

from repro.federation.coallocation import CoAllocator
from repro.model import Job, ResourceRequest, Slot, SlotPool
from repro.model.errors import AllocationError
from repro.model.slotarrays import SlotArrays
from repro.model.window import Window
from repro.service.config import ServiceConfig
from tests.conftest import make_slot, pool_state, stored_spans


def two_node_pool(first_id: int) -> SlotPool:
    return SlotPool.from_slots(
        [make_slot(first_id, 0.0, 100.0), make_slot(first_id + 1, 0.0, 100.0)]
    )


def wide_job(job_id="job-wide", node_count=3, budget=1000.0) -> Job:
    return Job(
        job_id=job_id,
        request=ResourceRequest(
            node_count=node_count, reservation_time=20.0, budget=budget
        ),
    )


class FailingCommitPool(SlotPool):
    """A pool whose commit always fails — forces the rollback path."""

    def commit_window(self, window: Window) -> None:
        raise AllocationError("injected commit failure")


class PhantomSlotPool(SlotPool):
    """A pool whose snapshot advertises one slot it does not hold, so a
    window searched over the union loses that leg's host at commit time
    — the real ``commit_window`` runs and refuses."""

    def as_arrays(self):
        slots = super().as_arrays().slot_objects() + [make_slot(99, 0.0, 100.0)]
        return SlotArrays.from_slots(sorted(slots, key=Slot.sort_key))


def floored_pools() -> dict[int, SlotPool]:
    """Three shards with floors raised: one cuts node 0's slot, one
    empties node 2, one changes nothing."""
    pools = {
        0: SlotPool.from_slots([make_slot(0, 0.0, 100.0), make_slot(1, 30.0, 100.0)]),
        1: SlotPool.from_slots([make_slot(2, 0.0, 10.0), make_slot(3, 0.0, 100.0)]),
        2: SlotPool.from_slots([make_slot(4, 50.0, 100.0)]),
    }
    for shard_id, floor in ((0, 20.0), (1, 10.0), (2, 5.0)):
        pools[shard_id].advance_floor(floor)
    return pools


def record_pool_work(monkeypatch) -> list[str]:
    """From now on, the names of the ``SlotPool`` calls that build a
    pool, iterate one or trim one, in call order."""
    calls: list[str] = []
    from_slots = SlotPool.from_slots.__func__
    iterate, trim = SlotPool.__iter__, SlotPool.trim_before

    def recorded(name, method):
        def call(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)

        return call

    monkeypatch.setattr(
        SlotPool, "from_slots", classmethod(recorded("from_slots", from_slots))
    )
    monkeypatch.setattr(SlotPool, "__iter__", recorded("__iter__", iterate))
    monkeypatch.setattr(SlotPool, "trim_before", recorded("trim_before", trim))
    return calls


class TestTryPlace:
    def test_spans_shards_when_no_single_shard_fits(self):
        pools = {0: two_node_pool(0), 1: two_node_pool(2)}
        before = {i: p.total_free_time() for i, p in pools.items()}
        allocator = CoAllocator(ServiceConfig())
        entry = allocator.try_place(wide_job(), pools, now=0.0)
        assert entry is not None
        assert len(entry.shard_ids) == 2
        assert allocator.active_count == 1
        # Every leg's node-seconds actually left its shard's pool.
        for shard_id, window in entry.legs.items():
            assert pools[shard_id].total_free_time() == pytest.approx(
                before[shard_id] - window.processor_time
            )
        assert entry.committed_node_seconds == pytest.approx(
            sum(w.processor_time for w in entry.legs.values())
        )

    def test_infeasible_job_places_nowhere(self):
        pools = {0: two_node_pool(0), 1: two_node_pool(2)}
        allocator = CoAllocator(ServiceConfig())
        assert allocator.try_place(wide_job(node_count=9), pools, 0.0) is None
        assert allocator.active_count == 0

    @pytest.mark.parametrize(
        "job",
        [wide_job(node_count=6), wide_job(budget=1.0)],
        ids=["too_wide", "too_dear"],
    )
    def test_a_failed_attempt_leaves_every_shard_untouched(self, job, monkeypatch):
        pools = floored_pools()
        before = {
            shard_id: (pool.generation, pool._floor, pool._store.entries())
            for shard_id, pool in pools.items()
        }
        allocator = CoAllocator(ServiceConfig())
        calls = record_pool_work(monkeypatch)

        assert allocator.try_place(job, pools, now=0.0) is None

        assert calls == []
        for shard_id, pool in pools.items():
            generation, floor, entries = before[shard_id]
            assert (pool.generation, pool._floor) == (generation, floor)
            assert pool._store.entries() is entries
        # The same reads as pools that never met the co-allocator.
        twins = floored_pools()
        for shard_id, pool in pools.items():
            assert pool_state(pool) == pool_state(twins[shard_id]), shard_id

    def test_a_placement_trims_only_the_shards_it_commits_to(self, monkeypatch):
        pools = floored_pools()
        calls = record_pool_work(monkeypatch)

        entry = CoAllocator(ServiceConfig()).try_place(wide_job(), pools, now=30.0)

        # Nodes 0 (cut to start at the floor, 20), 1 and 3 host [30, 35);
        # node 2 is emptied by its floor and node 4 starts at 50.
        assert entry is not None
        assert {
            shard_id: [leg.slot.node.node_id for leg in window.slots]
            for shard_id, window in entry.legs.items()
        } == {0: [0, 1], 1: [3]}
        # Each commit reads its shard as the floor clamps it; no shard is
        # trimmed, and shard 2's floor is its own.
        assert calls == []
        assert pools[2]._floor == 5.0

    def test_empty_pool_mapping(self):
        allocator = CoAllocator(ServiceConfig())
        assert allocator.try_place(wide_job(), {}, 0.0) is None


class TestRollback:
    def test_failed_commit_forfeits_zero_node_seconds(self):
        healthy = two_node_pool(0)
        poisoned = FailingCommitPool()
        for slot in two_node_pool(2):
            poisoned.add(slot)
        pools = {0: healthy, 1: poisoned}
        before = healthy.total_free_time()
        allocator = CoAllocator(ServiceConfig())

        entry = allocator.try_place(wide_job(), pools, now=0.0)

        # Shard 0 committed first (sorted order), shard 1's commit blew
        # up — the rollback must have returned shard 0's legs in full.
        assert entry is None
        assert allocator.active_count == 0
        assert healthy.total_free_time() == pytest.approx(before)
        healthy.assert_disjoint_per_node()

    def test_refused_commit_leaves_every_shard_pool_byte_identical(self):
        # All five advertised nodes are needed, so shard 1's sub-window
        # has two housed legs and the phantom one.
        stale = PhantomSlotPool()
        for slot in two_node_pool(2):
            stale.add(slot)
        pools = {0: two_node_pool(0), 1: stale}
        before = {shard_id: pool_state(pool) for shard_id, pool in pools.items()}
        generation = pools[0].generation
        allocator = CoAllocator(ServiceConfig())

        assert allocator.try_place(wide_job(node_count=5), pools, now=0.0) is None

        assert allocator.active_count == 0
        # Shard 0's legs were cut and released: the commit was refused.
        assert pools[0].generation > generation
        for shard_id, pool in pools.items():
            assert pool_state(pool) == before[shard_id], shard_id


class TestLifecycle:
    def test_release_due_returns_all_legs(self):
        pools = {0: two_node_pool(0), 1: two_node_pool(2)}
        before = {i: p.total_free_time() for i, p in pools.items()}
        allocator = CoAllocator(ServiceConfig())
        entry = allocator.try_place(wide_job(), pools, now=0.0)
        assert entry is not None

        assert allocator.release_due(pools, entry.completes_at - 1.0) == []
        retired = allocator.release_due(pools, entry.completes_at)
        assert [e.job.job_id for e in retired] == ["job-wide"]
        assert allocator.active_count == 0
        for shard_id, pool in pools.items():
            assert pool.total_free_time() == pytest.approx(before[shard_id])
            pool.assert_disjoint_per_node()

    def test_release_due_tells_release_the_time_the_shards_trim_to(self):
        """The shards have raised their floors to ``now`` when the
        co-allocator releases: legs on faster nodes end before the window
        completes and are not stored, and the pools read as after a
        release of every leg before the floor rose."""
        pools = {
            0: SlotPool.from_slots(
                [make_slot(0, 0.0, 100.0, performance=8.0), make_slot(1, 0.0, 100.0)]
            ),
            1: SlotPool.from_slots([make_slot(2, 0.0, 100.0, performance=2.0)]),
        }
        allocator = CoAllocator(ServiceConfig())
        entry = allocator.try_place(wide_job(), pools, now=0.0)
        assert entry is not None
        now = entry.completes_at
        expected = {}
        for shard_id, pool in pools.items():
            twin = pool.copy()
            twin.release(entry.legs[shard_id])
            twin.advance_floor(now)
            expected[shard_id] = pool_state(twin)
            pool.advance_floor(now)

        assert len(allocator.release_due(pools, now)) == 1
        # Runtimes 2.5, 5 and 10: only node 2's leg reaches ``now``.
        assert stored_spans(pools[0]) == {0: [(2.5, 100.0)], 1: [(5.0, 100.0)]}
        assert stored_spans(pools[1]) == {2: [(0.0, 100.0)]}
        for shard_id, pool in pools.items():
            assert pool_state(pool) == expected[shard_id], shard_id

    def test_next_completion_tracks_earliest(self):
        pools = {0: two_node_pool(0), 1: two_node_pool(2)}
        allocator = CoAllocator(ServiceConfig())
        assert allocator.next_completion() is None
        entry = allocator.try_place(wide_job(), pools, now=0.0)
        assert allocator.next_completion() == pytest.approx(entry.completes_at)


class TestFailShard:
    def test_dead_legs_forfeited_survivors_released(self):
        pools = {0: two_node_pool(0), 1: two_node_pool(2)}
        before_live = pools[0].total_free_time()
        allocator = CoAllocator(ServiceConfig())
        entry = allocator.try_place(wide_job(), pools, now=0.0)
        assert entry is not None
        live_leg = entry.legs[0].processor_time
        dead_leg = entry.legs[1].processor_time

        results = allocator.fail_shard(1, live_pools={0: pools[0]})

        assert len(results) == 1
        victim, released, forfeited = results[0]
        assert victim.job.job_id == "job-wide"
        assert released == pytest.approx(live_leg)
        assert forfeited == pytest.approx(dead_leg)
        # The conservation split: released + forfeited == committed.
        assert released + forfeited == pytest.approx(
            entry.committed_node_seconds
        )
        assert pools[0].total_free_time() == pytest.approx(before_live)
        assert allocator.active_count == 0

    def test_unrelated_entries_survive(self):
        pools = {0: two_node_pool(0), 1: two_node_pool(2), 2: two_node_pool(4)}
        allocator = CoAllocator(ServiceConfig())
        entry = allocator.try_place(wide_job(node_count=3), pools, now=0.0)
        assert entry is not None
        untouched = [i for i in (0, 1, 2) if i not in entry.legs]
        if untouched:
            assert allocator.fail_shard(untouched[0], pools) == []
            assert allocator.active_count == 1
