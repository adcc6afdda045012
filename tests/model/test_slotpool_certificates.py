"""Negative certificates on the slot pool: a search proven empty stays
answered ``[]`` only while the pool has lost free time since.

``vectorized_alternatives`` records a zero on the pool it searched
(``SlotPool.certify``) and answers an identical search from that record.
The pool keeps the record through removals (``remove``, trims and
floors, cuts whose remainders merge with nothing), starts an empty store
on every gain (``add``, ``release``, bulk loads, a cut remainder that
coalesces with a neighbour), and shares the store with a ``copy()`` only
until either side mutates.  Every certified answer here is checked
against the same search on a verbatim rebuild of the pool, which has no
records.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CSA, vectorized
from repro.core.vectorized import vectorized_alternatives
from repro.model import Job, ResourceRequest, Slot, SlotPool, Window, WindowSlot
from repro.model.job import JobBatch

from tests.conftest import make_node, make_slot

POLICIES = ("first", "cheapest")

#: task(20) on the default node (performance 4) runs 5.
PAIR = ResourceRequest(node_count=2, reservation_time=20.0)


def certified_delta(run):
    before = vectorized.scan_counters["certified"]
    result = run()
    return result, vectorized.scan_counters["certified"] - before


def rebuilt(pool: SlotPool) -> SlotPool:
    """The pool's slots, verbatim, in a pool with no records."""
    return SlotPool.from_slots(
        pool.ordered(), min_usable_length=pool.min_usable_length, coalesce=False
    )


def one_window_pool() -> SlotPool:
    """Two slots exactly one ``PAIR`` task long: one window, no remainder."""
    return SlotPool.from_slots([make_slot(0, 0.0, 5.0), make_slot(1, 0.0, 5.0)])


class TestCopyOnWrite:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_on_a_cut_copy_does_not_leak_into_the_original(self, policy):
        pool = one_window_pool()
        [window] = vectorized_alternatives(PAIR, pool, None, policy)
        twin = pool.copy()
        twin.cut_window(window, mode="consume")
        assert vectorized_alternatives(PAIR, twin, None, policy) == []
        found, certified = certified_delta(
            lambda: vectorized_alternatives(PAIR, pool, None, policy)
        )
        assert found == [window]
        assert certified == 0
        # The copy's own record still answers the copy.
        found, certified = certified_delta(
            lambda: vectorized_alternatives(PAIR, twin, None, policy)
        )
        assert (found, certified) == ([], 1)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_on_a_cut_original_does_not_leak_into_its_copy(self, policy):
        pool = one_window_pool()
        [window] = vectorized_alternatives(PAIR, pool, None, policy)
        twin = pool.copy()
        pool.commit_window(window)
        assert vectorized_alternatives(PAIR, pool, None, policy) == []
        assert vectorized_alternatives(PAIR, twin, None, policy) == [window]

    def test_a_record_made_before_the_copy_serves_both(self):
        pool = SlotPool.from_slots([make_slot(0, 0.0, 100.0)])
        assert vectorized_alternatives(PAIR, pool, None, "first") == []
        twin = pool.copy()
        for each in (pool, twin):
            found, certified = certified_delta(
                lambda: vectorized_alternatives(PAIR, each, None, "first")
            )
            assert (found, certified) == ([], 1)

    def test_consuming_batch_scheduler_cycle(self):
        # A consuming cycle searches each job on a working copy cut by
        # its predecessors' windows.  Job a takes the only window there;
        # job b's search on the cut copy is a recorded zero, which must
        # not reach the published pool.
        pool = one_window_pool()
        batch = JobBatch([Job(job_id="a", request=PAIR), Job(job_id="b", request=PAIR)])

        def consuming_cycle():
            working = pool.copy()
            found = {}
            for job in batch:
                found[job.job_id] = CSA().find_alternatives(job, working)
                for window in found[job.job_id]:
                    working.cut_window(window)
            return found

        found, certified = certified_delta(consuming_cycle)
        assert [len(found["a"]), len(found["b"])] == [1, 0]
        assert certified == 0
        assert CSA().find_alternatives(batch.jobs[1], pool) == found["a"]
        # A second cycle on the same pool sees the same two answers.
        assert consuming_cycle() == found


class TestGainsAndRemovals:
    @staticmethod
    def touching_pool() -> SlotPool:
        """Node 0 is free over [0, 12) as two touching slots a shard
        pool keeps apart; node 1 from 4.  A ``PAIR`` window needs node
        0 free for 5 from 4 on: neither of its slots is."""
        node = make_node(0)
        return SlotPool.from_slots(
            [Slot(node, 0.0, 8.0), Slot(node, 8.0, 12.0), make_slot(1, 4.0, 12.0)],
            coalesce=False,
        )

    @staticmethod
    def carve(pool: SlotPool, start: float, length: float) -> None:
        """Commit a one-leg window of ``length`` on node 0 at ``start``."""
        [host] = [slot for slot in pool.by_node()[0] if slot.start <= start < slot.end]
        leg = WindowSlot(slot=host, required_time=length, cost=0.0)
        pool.commit_window(Window(start=start, slots=(leg,)))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_coalescing_remainder_is_a_gain(self, policy):
        pool = self.touching_pool()
        assert vectorized_alternatives(PAIR, pool, None, policy) == []
        # Carving [0, 1) re-inserts [1, 8), which merges with [8, 12).
        self.carve(pool, 0.0, 1.0)
        assert len(pool.by_node()[0]) == 1
        found, certified = certified_delta(
            lambda: vectorized_alternatives(PAIR, pool, None, policy)
        )
        assert certified == 0
        assert [window.start for window in found] == [4.0]
        assert found == vectorized_alternatives(PAIR, rebuilt(pool), None, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_remainder_that_merges_with_nothing_is_a_removal(self, policy):
        pool = self.touching_pool()
        assert vectorized_alternatives(PAIR, pool, None, policy) == []
        # Carving [8, 9) leaves [9, 12), which touches nothing.
        self.carve(pool, 8.0, 1.0)
        assert len(pool.by_node()[0]) == 2
        found, certified = certified_delta(
            lambda: vectorized_alternatives(PAIR, pool, None, policy)
        )
        assert (found, certified) == ([], 1)

    def test_every_gain_empties_the_store_and_no_removal_does(self):
        request = ResourceRequest(node_count=3, reservation_time=20.0)

        def certified_now(pool):
            return certified_delta(
                lambda: vectorized_alternatives(request, pool, None, "first")
            )[1]

        def recorded():
            pool = SlotPool.from_slots(
                [make_slot(0, 0.0, 50.0), make_slot(1, 10.0, 60.0)]
            )
            assert vectorized_alternatives(request, pool, None, "first") == []
            return pool

        removals = [
            lambda pool: pool.remove(pool.ordered()[0]),
            lambda pool: pool.trim_before(20.0),
            lambda pool: pool.advance_floor(20.0),
        ]
        for removal in removals:
            pool = recorded()
            removal(pool)
            assert certified_now(pool) == 1
        gains = [
            lambda pool: pool.add(make_slot(2, 100.0, 120.0)),
            lambda pool: pool.release(
                Window(
                    start=60.0,
                    slots=(WindowSlot(make_slot(1, 60.0, 65.0), 5.0, 10.0),),
                )
            ),
        ]
        for gain in gains:
            pool = recorded()
            gain(pool)
            assert certified_now(pool) == 0
        pool = SlotPool.from_slots(recorded().ordered())
        assert certified_now(pool) == 0

    def test_store_is_bounded_oldest_first(self):
        pool = SlotPool.from_slots([make_slot(0, 0.0, 100.0)])
        limit = vectorized.PLAN_CACHE_LIMIT
        requests = [
            ResourceRequest(node_count=2, reservation_time=float(10 + index))
            for index in range(limit + 1)
        ]
        for request in requests:
            assert vectorized_alternatives(request, pool, None, "cheapest") == []
        assert len(pool._certificates) == limit
        _, certified = certified_delta(
            lambda: vectorized_alternatives(requests[0], pool, None, "cheapest")
        )
        assert certified == 0  # forgotten, searched again, recorded again
        _, certified = certified_delta(
            lambda: vectorized_alternatives(requests[-1], pool, None, "cheapest")
        )
        assert certified == 1


# ----------------------------------------------------------------------
# The storm
# ----------------------------------------------------------------------
#: Leg costs on the storm's nodes run 0.6 .. 60 per task of 10: the
#: tight budgets leave many searches empty, the loose ones few.
STORM_REQUESTS = [
    ResourceRequest(node_count=2, reservation_time=10.0, budget=6.0),
    ResourceRequest(node_count=3, reservation_time=10.0, budget=30.0),
    ResourceRequest(node_count=4, reservation_time=20.0, budget=40.0, deadline=90.0),
    ResourceRequest(node_count=1, reservation_time=30.0, budget=4.0),
    ResourceRequest(node_count=5, reservation_time=10.0),
]
STORM_OPS = (
    "search", "commit", "carve", "release", "add", "floor", "copy", "rebuild", "remove",
)


class TestExpiryNearAThreshold:
    """A cheapest-policy zero is no certificate on a plan where a
    candidate's expiry time lies a few ulps below a later candidate's
    threshold: cutting that candidate's slot to start there can leave it
    expired on arrival, alive at its own step only, and a window forms
    there that the old pool never had."""

    # Node 0 runs 1.52e6 (performance 1.0); its slot, cut to start at
    # CUT, passes the insertable test yet has end - runtime below CUT -
    # epsilon.  Node 1 starts between that expiry time and CUT.
    CUT = 0.8800301687734118
    END = 1522731.6770924227
    RUNTIME = 1522730.797062255
    PARTNER = 0.88003016876

    def test_zero_before_the_cut_is_not_recorded(self):
        pool = SlotPool.from_slots(
            [
                make_slot(0, 0.5, self.END, performance=1.0, price=1e-6),
                make_slot(1, self.PARTNER, 1e7, performance=1e6, price=1e-6),
            ]
        )
        request = ResourceRequest(node_count=2, reservation_time=self.RUNTIME)
        assert vectorized_alternatives(request, pool, None, "cheapest") == []
        pool.trim_before(self.CUT)
        found, certified = certified_delta(
            lambda: vectorized_alternatives(request, pool, None, "cheapest")
        )
        assert certified == 0
        assert [window.nodes() for window in found] == [[1, 0]]
        assert found == vectorized_alternatives(request, rebuilt(pool), None, "cheapest")


def storm_slots(rng: np.random.Generator, nodes: int, touching: bool) -> list[Slot]:
    """Several slots per node; with ``touching``, some of them abut."""
    slots = []
    for node_id in range(nodes):
        node = make_node(node_id, float(rng.integers(1, 8)), float(rng.uniform(0.5, 6.0)))
        cursor = float(rng.uniform(0.0, 10.0))
        for _ in range(4):
            length = float(rng.uniform(5.0, 30.0))
            slots.append(Slot(node, cursor, cursor + length))
            gap = 0.0 if touching and rng.random() < 0.5 else float(rng.uniform(1.0, 8.0))
            cursor += length + gap
    return slots


def run_storm(seed: int, touching: bool, steps: int = 250) -> dict:
    rng = np.random.default_rng(seed)
    coalesce = not touching
    pools = [[SlotPool.from_slots(storm_slots(rng, 10, touching), coalesce=coalesce), []]]
    floor = 0.0
    next_node = 1000
    tally = {"certified": 0, "revived": 0}
    zeros: set = set()  # (id(pool), request index, policy) last seen empty

    def check_all() -> None:
        for pool, _ in pools:
            reference = rebuilt(pool)
            for index, request in enumerate(STORM_REQUESTS):
                for policy in POLICIES:
                    found, certified = certified_delta(
                        lambda: vectorized_alternatives(request, pool, None, policy)
                    )
                    expected = vectorized_alternatives(request, reference, None, policy)
                    assert found == expected, (seed, touching, policy, request)
                    tally["certified"] += certified
                    key = (id(pool), index, policy)
                    if found:
                        tally["revived"] += key in zeros
                        zeros.discard(key)
                    else:
                        zeros.add(key)

    for _ in range(steps):
        entry = pools[int(rng.integers(len(pools)))]
        pool, committed = entry
        op = STORM_OPS[int(rng.integers(len(STORM_OPS)))]
        if op == "commit":
            request = STORM_REQUESTS[int(rng.integers(len(STORM_REQUESTS)))]
            found = vectorized_alternatives(request, pool, 1, "cheapest")
            if found:
                pool.commit_window(found[0], mode=("split", "consume")[int(rng.integers(2))])
                committed.append(found[0])
        elif op == "carve" and len(pool):
            # A one-leg commit at or just after a slot's start: with
            # touching slots its remainders often coalesce.
            slots = pool.ordered()
            host = slots[int(rng.integers(len(slots)))]
            start = host.start + float(rng.choice([0.0, rng.uniform(0.0, 2.0)]))
            length = float(rng.uniform(0.5, 3.0))
            if start + length < host.end:
                window = Window(start=start, slots=(WindowSlot(host, length, 0.0),))
                pool.commit_window(window)
                committed.append(window)
        elif op == "release" and committed:
            pool.release(committed.pop(int(rng.integers(len(committed)))))
        elif op == "add":
            start = floor + float(rng.uniform(0.0, 40.0))
            node = make_node(next_node, float(rng.integers(1, 8)), float(rng.uniform(0.5, 6.0)))
            next_node += 1
            pool.add(Slot(node, start, start + float(rng.uniform(5.0, 40.0))))
        elif op == "floor":
            floor += float(rng.uniform(0.0, 6.0))
            pool.advance_floor(floor)
        elif op == "copy":
            twin = [pool.copy(), list(committed)]
            if len(pools) < 3:
                pools.append(twin)
            else:
                pools[int(rng.integers(len(pools)))] = twin
        elif op == "rebuild":
            entry[0] = SlotPool.from_slots(pool.ordered(), coalesce=coalesce)
        elif op == "remove" and len(pool):
            slots = pool.ordered()
            pool.remove(slots[int(rng.integers(len(slots)))])
        check_all()
    return tally


@pytest.mark.parametrize("touching", [False, True], ids=["coalesced", "touching"])
@pytest.mark.parametrize("seed", [3, 5, 8])
def test_certificate_storm(seed, touching):
    tally = run_storm(seed, touching)
    # Records answered searches, and gains brought empty searches back.
    assert tally["certified"] > 100
    assert tally["revived"] > 0
