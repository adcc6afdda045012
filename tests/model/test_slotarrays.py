"""The column store: cache discipline, mutation storms.

The pool keeps its slot order once, in its column store
(:class:`SlotColumnStore`): the start-ordered entry list and the numpy
columns (:meth:`SlotPool.as_arrays`) the vectorized scan kernel reads.
Under arbitrary interleavings of every mutating operation both must
describe exactly the per-node buckets: the entry list is the key-sorted
merge of the buckets (:func:`assert_one_order`), and the columns are
byte-equal to :meth:`SlotArrays.from_slots` of that merge.
"""

from __future__ import annotations

import weakref
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MinCost
from repro.core.aep import aep_scan
from repro.core.extractors import MinTotalCostExtractor
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import ResourceRequest, Slot, SlotPool
from repro.model.slot import TIME_EPSILON
from repro.model.slotarrays import SlotArrays, SlotColumnStore
from tests.conftest import SNAPSHOT_COLUMNS as COLUMNS
from tests.conftest import make_node, make_slot
from tests.core.reference import reference_scan


def generated_pool(node_count: int = 25, seed: int = 9) -> SlotPool:
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=node_count, seed=seed)
    ).generate()
    return environment.slot_pool()


def span_list(pool: SlotPool):
    return [(s.node.node_id, s.start, s.end) for s in pool.ordered()]


def assert_columns_match_objects(pool: SlotPool) -> None:
    """The snapshot's columns are exactly the pool's object state."""
    arrays = pool.as_arrays()
    ordered = pool.ordered()
    assert arrays.slot_count == len(ordered)
    assert arrays.start.tolist() == [s.start for s in ordered]
    assert arrays.end.tolist() == [s.end for s in ordered]
    node_ids = arrays.node_id[arrays.node_row].tolist()
    assert node_ids == [s.node.node_id for s in ordered]
    rows = {int(arrays.node_id[i]): i for i in range(arrays.node_count)}
    for slot in ordered:
        row = rows[slot.node.node_id]
        assert arrays.performance[row] == slot.node.performance
        assert arrays.price[row] == slot.node.price_per_unit


def assert_same_columns(maintained: SlotArrays, rebuilt: SlotArrays) -> None:
    for column in COLUMNS:
        left, right = getattr(maintained, column), getattr(rebuilt, column)
        assert left.dtype == right.dtype, column
        assert left.tobytes() == right.tobytes(), column
    assert maintained.os_names == rebuilt.os_names


def assert_bytes_equal_rebuild(pool: SlotPool, slots=None) -> None:
    """The delta-maintained snapshot is byte-equal to a cold rebuild
    (of the pool's own ordered slots, or of ``slots`` when given)."""
    maintained = pool.as_arrays()
    rebuilt = SlotArrays.from_slots(pool.ordered() if slots is None else slots)
    assert_same_columns(maintained, rebuilt)


def bucket_merge(pool: SlotPool) -> list:
    """The key-sorted merge of the pool's per-node buckets: its entries
    as the buckets hold them, read without catching the store up or
    applying a pending floor."""
    merged = [entry for bucket in pool._by_node.values() for entry in bucket]
    return sorted(merged, key=itemgetter(0))


def merged_slots(pool: SlotPool) -> list[Slot]:
    """The slots of :func:`bucket_merge`, in order."""
    return [slot for _, slot in bucket_merge(pool)]


def assert_one_order(pool: SlotPool) -> None:
    """The store's ordered entries are the key-sorted merge of the
    buckets, and the pool's snapshot is byte-equal to a cold rebuild of
    that merge.  A pending floor stays pending: the snapshot is read
    through ``arrays_before_floor``, which is ``as_arrays()``'s when no
    floor is pending."""
    merged = bucket_merge(pool)
    assert pool._store.entries() == merged
    assert pool._store.size == len(merged)
    rebuilt = SlotArrays.from_slots([slot for _, slot in merged])
    assert_same_columns(pool.arrays_before_floor()[0], rebuilt)


def assert_index_consistent(pool: SlotPool) -> None:
    """The store and the per-node buckets hold the same entries in the
    same order, and every bucket is one node's, start-ordered."""
    assert_one_order(pool)
    for node_id, bucket in pool._by_node.items():
        assert bucket  # empty buckets are deleted eagerly
        assert bucket == sorted(bucket)
        assert all(slot.node.node_id == node_id for _, slot in bucket)


class TestMutationStorm:
    """Interleaved add / commit_window / release / trim_before keep the
    columnar snapshot, the store's entry list and the per-node index in
    lockstep."""

    REQUEST = ResourceRequest(node_count=2, reservation_time=30.0, budget=500.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_storm_preserves_agreement(self, seed):
        rng = np.random.default_rng(seed)
        pool = generated_pool(node_count=12, seed=int(rng.integers(1, 1000)))
        committed = []
        clock = 0.0
        fresh_node = 10_000
        search = MinCost()
        for _ in range(30):
            op = rng.integers(0, 4)
            if op == 0:
                # Add a slot on a brand-new node: never collides with a
                # committed span, so later releases stay legal.
                fresh_node += 1
                start = float(rng.uniform(clock, clock + 200.0))
                node = make_node(
                    fresh_node,
                    performance=float(rng.integers(1, 8)),
                    price=float(rng.uniform(0.5, 5.0)),
                )
                pool.add(Slot(node, start, start + float(rng.uniform(5.0, 80.0))))
            elif op == 1:
                window = search.select(self.REQUEST, pool)
                if window is not None:
                    pool.commit_window(window)
                    committed.append(window)
            elif op == 2 and committed:
                pool.release(committed.pop(int(rng.integers(len(committed)))))
            else:
                clock += float(rng.uniform(0.0, 15.0))
                pool.trim_before(clock)
                committed = [w for w in committed if w.start >= clock]
            pool.assert_disjoint_per_node()
            assert_index_consistent(pool)
            assert_columns_match_objects(pool)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_storm_delta_maintenance_byte_equal_to_rebuild(self, seed):
        """The tentpole invariant: after every mutation — including
        rolling-horizon extensions — the incrementally maintained
        snapshot is *byte*-equal to a cold per-slot rebuild."""
        from repro.environment.rolling import HorizonConfig, RollingHorizonSource

        rng = np.random.default_rng(seed)
        env_seed = int(rng.integers(1, 1000))
        # The pool is fed exclusively by the rolling source, exactly as
        # in soak serving (the source owns the node-id space).
        pool = SlotPool()
        source = RollingHorizonSource(
            EnvironmentConfig(node_count=10, seed=env_seed),
            HorizonConfig(lead=120.0, stride=60.0),
        )
        source.extend_to(pool, 600.0)
        committed = []
        clock = 0.0
        horizon = 600.0
        search = MinCost()
        for _ in range(25):
            op = rng.integers(0, 5)
            if op == 0:
                window = search.select(self.REQUEST, pool)
                if window is not None:
                    pool.commit_window(window)
                    committed.append(window)
            elif op == 1 and committed:
                pool.release(committed.pop(int(rng.integers(len(committed)))))
            elif op == 2:
                clock += float(rng.uniform(0.0, 40.0))
                pool.trim_before(clock)
                committed = [w for w in committed if w.start >= clock]
            else:
                # The soak loop's step: publish future segments.
                horizon += float(rng.uniform(0.0, 150.0))
                source.extend_to(pool, horizon)
            assert_bytes_equal_rebuild(pool)

    def test_capacity_boundary_byte_equal(self):
        """Growing past a power of two, shrinking back under it and
        outgrowing it again, one mutation and one read at a time: the
        mirrored rows must follow exactly at every size."""
        pool = SlotPool()
        boundary = 32
        # Each node's spans are one unit apart: nothing merges.
        slots = [
            Slot(make_node(i % 5), float(i), float(i) + 4.0)
            for i in range(boundary + 8)
        ]
        for slot in slots:
            pool.add(slot)
            assert_bytes_equal_rebuild(pool)
        # Shrink well below the boundary, one delete at a time ...
        for slot in slots[: boundary - 2]:
            pool.remove(slot)
            assert_bytes_equal_rebuild(pool)
        assert len(pool) < boundary
        # ... and keep mutating until the pool has outgrown it again.
        for i in range(boundary + 8, 2 * boundary + 8):
            pool.add(Slot(make_node(i % 5), float(i), float(i) + 4.0))
            assert_bytes_equal_rebuild(pool)
        assert len(pool) > boundary

    def test_copy_twins_stay_byte_equal_to_their_own_rebuild(self):
        """``copy()`` shares the read-only column block and gives the
        twin its own edit record: mutating twin and original
        alternately must never show through on the other side."""
        rng = np.random.default_rng(77)
        original = generated_pool(node_count=8, seed=3)
        pools = [original, original.copy()]
        clocks = [0.0, 0.0]
        fresh_node = 20_000
        for step in range(90):
            side = step % 2
            pool = pools[side]
            op = rng.integers(0, 3)
            if op == 0 or len(pool) == 0:
                fresh_node += 1
                start = clocks[side] + float(rng.uniform(0.0, 300.0))
                pool.add(Slot(make_node(fresh_node), start, start + 25.0))
            elif op == 1:
                slots = pool.ordered()
                pool.remove(slots[int(rng.integers(len(slots)))])
            else:
                clocks[side] += float(rng.uniform(0.0, 20.0))
                pool.trim_before(clocks[side])
            for each in pools:
                assert_bytes_equal_rebuild(each)
                assert_index_consistent(each)
        assert span_list(pools[0]) != span_list(pools[1])

    def test_full_trim_compacts_node_table_and_bucket_index(self):
        """A node whose slots are all trimmed must vanish from the
        snapshot's node table and the per-node bucket index — a
        long-running rolling-horizon pool would otherwise accumulate one
        table row per node ever seen."""
        short = make_node(1)
        long = make_node(2)
        pool = SlotPool.from_slots([Slot(short, 0.0, 50.0), Slot(long, 0.0, 500.0)])
        assert pool.as_arrays().node_count == 2
        pool.trim_before(100.0)
        arrays = pool.as_arrays()
        assert arrays.node_count == 1
        assert arrays.node_id.tolist() == [2]
        assert list(pool._by_node.keys()) == [2]
        assert_bytes_equal_rebuild(pool)
        # Re-adding the node later must reintroduce it cleanly.
        pool.add(Slot(short, 200.0, 260.0))
        arrays = pool.as_arrays()
        assert arrays.node_id.tolist() == [1, 2]
        assert_bytes_equal_rebuild(pool)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_storm_scan_equivalence(self, seed):
        """After a storm, the vector scan over the mutated pool still
        matches the frozen reference kernel over the same slots."""
        rng = np.random.default_rng(seed)
        pool = generated_pool(node_count=15, seed=int(rng.integers(1, 1000)))
        search = MinCost()
        for _ in range(6):
            window = search.select(self.REQUEST, pool)
            if window is None:
                break
            pool.commit_window(window)
        pool.trim_before(float(rng.uniform(0.0, 30.0)))
        incremental = aep_scan(self.REQUEST, pool, MinTotalCostExtractor())
        reference = reference_scan(
            self.REQUEST, pool.ordered(), MinTotalCostExtractor()
        )
        assert (incremental is None) == (reference is None)
        if incremental is not None:
            assert incremental.window.start == reference.window.start
            assert incremental.value == reference.value
            assert incremental.steps == reference.steps
            assert incremental.slots_scanned == reference.slots_scanned


def assert_read_matches(pool: SlotPool) -> None:
    """One read of a pool whose store may hold pending edits: columns
    byte-equal to a rebuild, the snapshot's slots the pool's own, in
    order, and the per-node index consistent."""
    assert_bytes_equal_rebuild(pool)
    ordered = pool.ordered()
    slots = pool.as_arrays().slot_objects()
    assert len(slots) == len(ordered)
    assert all(ours is theirs for ours, theirs in zip(slots, ordered))
    assert_index_consistent(pool)


class TestBatchedEditStorm:
    """The storms above read after every mutation, so the store never
    applies more than one edit at a time.  Here reads come only after
    runs of 1-60 mutations, with ``copy()`` and ``trim_before`` taken
    while edits are pending and twins mutated on their own."""

    REQUEST = ResourceRequest(node_count=2, reservation_time=30.0, budget=500.0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_batched_reads_byte_equal_to_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        pool = generated_pool(node_count=10, seed=int(rng.integers(1, 1000)))
        pool.as_arrays()
        twins: list[SlotPool] = []
        committed = []
        clock = 0.0
        fresh_node = 30_000
        search = MinCost()
        for _ in range(5):
            for _ in range(int(rng.integers(1, 61))):
                op = int(rng.integers(0, 6))
                if op == 0:
                    fresh_node += 1
                    start = float(rng.uniform(clock, clock + 200.0))
                    node = make_node(fresh_node, performance=float(rng.integers(1, 8)))
                    pool.add(Slot(node, start, start + float(rng.uniform(5.0, 80.0))))
                elif op == 1 and len(pool):
                    slots = merged_slots(pool)
                    pool.remove(slots[int(rng.integers(len(slots)))])
                elif op == 2:
                    # The generic loop reads objects, not columns, and
                    # ``ordered()`` is a read: the search walks the
                    # buckets' merge, so it does not catch the store up.
                    window = search.select(self.REQUEST, iter(merged_slots(pool)))
                    if window is not None:
                        pool.commit_window(window)
                        committed.append(window)
                elif op == 3 and committed:
                    pool.release(committed.pop(int(rng.integers(len(committed)))))
                elif op == 4:
                    clock += float(rng.uniform(0.0, 15.0))
                    pool.trim_before(clock)
                    committed = [w for w in committed if w.start >= clock]
                elif twins and rng.random() < 0.5:
                    twin = twins[int(rng.integers(len(twins)))]
                    if len(twin) and rng.random() < 0.5:
                        slots = merged_slots(twin)
                        twin.remove(slots[int(rng.integers(len(slots)))])
                    else:
                        twin.trim_before(clock + float(rng.uniform(0.0, 30.0)))
                else:
                    twins.append(pool.copy())
            for each in [pool, *twins]:
                each.assert_disjoint_per_node()
                assert_read_matches(each)

    def test_powers_of_two_crossed_inside_one_batch(self):
        """One batch grows the pool from 30 rows past 32 and 64, the
        next shrinks it under 32 again; each is applied in one read."""
        pool = SlotPool()
        # Each node's spans have gaps, so every add inserts one row.
        for i in range(30):
            pool.add(Slot(make_node(i % 5), float(i), float(i) + 4.0))
        assert_read_matches(pool)
        added = [
            Slot(make_node(5 + i % 7), float(i) + 0.5, float(i) + 3.0) for i in range(45)
        ]
        for slot in added:
            pool.add(slot)
        pool.trim_before(1.0)
        assert len(pool) > 64
        assert_read_matches(pool)
        for slot in added[5:]:
            pool.remove(slot)
        pool.trim_before(12.0)
        assert len(pool) < 32
        assert_read_matches(pool)


class TestSnapshotIsolation:
    """A snapshot describes its own generation, even when its slot list
    is first asked for after the pool has moved on."""

    @pytest.mark.parametrize("side", ["pool", "twin"])
    def test_late_slot_objects_describe_the_snapshot_generation(self, side):
        original = generated_pool(node_count=8, seed=4)
        original.trim_before(5.0)  # an edit pending when the twin is taken
        pool = original if side == "pool" else original.copy()
        before = pool.ordered()
        rebuilt = SlotArrays.from_slots(before)
        old = pool.as_arrays()
        generation = pool.generation
        # A kernel scan of the pool would build ``old``'s slot list now.
        window = MinCost().select(TestMutationStorm.REQUEST, iter(before))
        assert window is not None
        for each in {id(original): original, id(pool): pool}.values():
            each.commit_window(window)
            each.trim_before(20.0)
            each.add(make_slot(99_999, 30.0, 90.0))
        assert pool.generation != generation
        assert pool.as_arrays() is not old
        assert old._slots is None  # never asked for until now
        slots = old.slot_objects()
        assert len(slots) == len(before)
        assert all(ours is theirs for ours, theirs in zip(slots, before))
        assert old.slot_objects() is slots
        for column in COLUMNS:
            assert getattr(old, column).tobytes() == getattr(rebuilt, column).tobytes()
        assert old.os_names == rebuilt.os_names


class TestCatchUpOnRead:
    """The columns are rewritten on a read with edits pending, once,
    never per mutation: a counter on the store's one column writer."""

    @staticmethod
    def count_rewrites(monkeypatch) -> list:
        calls = []
        rewrite = SlotColumnStore._catch_up

        def counted(store):
            calls.append(store.generation)
            return rewrite(store)

        monkeypatch.setattr(SlotColumnStore, "_catch_up", counted)
        return calls

    def test_fifty_adds_then_one_read_rewrite_once(self, monkeypatch):
        calls = self.count_rewrites(monkeypatch)
        pool = SlotPool()
        for i in range(50):
            pool.add(Slot(make_node(i % 9), 10.0 * i, 10.0 * i + 4.0))
        assert calls == []
        arrays = pool.as_arrays()
        assert len(calls) == 1
        assert pool.as_arrays() is arrays  # unchanged pool: cached
        assert len(calls) == 1
        assert_bytes_equal_rebuild(pool)

    def test_mutations_without_a_read_never_rewrite(self, monkeypatch):
        pool = generated_pool(node_count=10, seed=6)
        pool.as_arrays()
        calls = self.count_rewrites(monkeypatch)
        window = MinCost().select(TestMutationStorm.REQUEST, iter(pool.ordered()))
        assert window is not None
        pool.commit_window(window)
        pool.trim_before(4.0)
        pool.release(window)
        pool.remove(merged_slots(pool)[3])  # ``ordered()`` would be a read
        pool.add(make_slot(77_777, 50.0, 60.0))
        assert calls == []
        twin = pool.copy()  # a read: catches up once, the twin shares it
        assert len(calls) == 1
        twin.as_arrays()
        pool.as_arrays()
        assert len(calls) == 1
        assert_bytes_equal_rebuild(twin)
        assert_bytes_equal_rebuild(pool)


class TestSnapshotLifetime:
    """After the first edit, nothing of a pool refers to the snapshot it
    served before: the snapshot, and every scan plan cached on it, dies
    at the edit (no collection needed)."""

    EDITS = {
        "add": lambda pool: pool.add(make_slot(88_888, 50.0, 60.0)),
        "remove": lambda pool: pool.remove(merged_slots(pool)[0]),
        "trim": lambda pool: pool.trim_before(5.0),
        "commit": lambda pool: pool.commit_window(
            MinCost().select(TestMutationStorm.REQUEST, iter(merged_slots(pool)))
        ),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    @pytest.mark.parametrize("floor", [None, 2.0])
    def test_the_first_edit_drops_the_served_snapshot(self, edit, floor):
        pool = generated_pool(node_count=8, seed=3)
        if floor is not None:
            pool.advance_floor(floor)
            pool.arrays_before_floor()  # the floor's rows, kept on the snapshot
        served = weakref.ref(pool.arrays_before_floor()[0])
        MinCost().select(TestMutationStorm.REQUEST, pool)  # a plan on it
        self.EDITS[edit](pool)
        assert served() is None
        assert pool._store.served is None

    def test_a_twin_keeps_the_shared_snapshot_until_it_edits_too(self):
        pool = generated_pool(node_count=8, seed=3)
        twin = pool.copy()
        served = weakref.ref(pool.as_arrays())
        assert twin.as_arrays() is served()
        pool.trim_before(5.0)
        assert twin.as_arrays() is served()
        twin.trim_before(5.0)
        assert served() is None


class TestSnapshotIdentity:
    def test_snapshots_compare_and_hash_by_identity(self):
        """Field-wise ``==`` on numpy columns raised ``ValueError``
        and left snapshots unhashable."""
        pool = generated_pool(node_count=6, seed=2)
        first = pool.as_arrays()
        pool.trim_before(5.0)
        second = pool.as_arrays()
        assert first.slot_count > 1
        assert first == first
        assert first != second
        assert SlotArrays.from_slots(pool.ordered()) != second
        assert len({first, second, first}) == 2


def naive_trim(slots, time):
    """``trim_before`` on a plain slot list: filter, truncate, re-sort."""
    changed = 0
    kept = []
    for slot in slots:
        if slot.end <= time + TIME_EPSILON:
            changed += 1
        elif slot.start < time - TIME_EPSILON:
            changed += 1
            if slot.end - time > TIME_EPSILON:
                kept.append(Slot(slot.node, time, slot.end))
        else:
            kept.append(slot)
    return changed, sorted(kept, key=Slot.sort_key)


@st.composite
def touching_slot_lists(draw):
    """Per-node disjoint slots on an integer grid, so spans often touch
    (coalescing matters) and trims often land exactly on an endpoint."""
    slots = []
    for node_id in range(draw(st.integers(1, 6))):
        node = make_node(node_id)
        points = sorted(draw(st.sets(st.integers(0, 120), min_size=2, max_size=9)))
        for left, right in zip(points, points[1:]):
            if draw(st.booleans()):
                slots.append(Slot(node, float(left), float(right)))
    return draw(st.permutations(slots))


class TestTrimAgainstNaiveModel:
    @settings(max_examples=60, deadline=None)
    @given(
        slots=touching_slot_lists(),
        times=st.lists(
            st.one_of(
                st.integers(0, 125).map(float),
                st.floats(0.0, 125.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_trim_before_equals_filter_and_truncate(self, slots, times):
        pool = SlotPool.from_slots(slots)
        self.assert_trims_match_model(pool, sorted(times))

    @staticmethod
    def assert_trims_match_model(pool, times):
        model = pool.ordered()
        for time in times:
            changed, model = naive_trim(model, time)
            assert pool.trim_before(time) == changed
            assert pool.ordered() == model
            grouped = {}
            for slot in model:
                grouped.setdefault(slot.node.node_id, []).append(slot)
            assert pool.by_node() == grouped
            assert_index_consistent(pool)
            assert_bytes_equal_rebuild(pool, model)

    def test_node_with_three_entries_in_the_walked_prefix(self):
        """Three-entry heads: two dead entries, then one straddling
        ``time`` (truncated) or starting within an epsilon of it (kept
        as it is) — only a head's last entry can survive — next to a
        node with the usual single entry."""
        straddling, kept = make_node(1), make_node(3)
        pool = SlotPool.from_slots(
            [
                Slot(straddling, 0.0, 5.0),
                Slot(straddling, 6.0, 9.0),
                Slot(straddling, 9.5, 13.0),
                Slot(kept, 0.0, 5.0),
                Slot(kept, 6.0, 9.5),
                Slot(kept, 10.0 - TIME_EPSILON / 2, 60.0),
                Slot(kept, 70.0, 80.0),
                make_slot(2, 0.0, 45.0),
            ]
        )
        self.assert_trims_match_model(pool, [10.0, 10.0, 65.0, 90.0])
