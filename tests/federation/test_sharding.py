"""Partitioning laws: shard pools are a true partition of the source.

Property-tested (hypothesis): node-seconds are conserved by the split,
each node's slots land wholly in one shard, and interleaved
``commit_window`` / ``release`` / ``trim_before`` on *different* shard
pools keep every per-node bucket index consistent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.sharding import partition_nodes, partition_pool
from repro.model import SlotPool, Window, WindowSlot
from repro.model.errors import ConfigurationError
from tests.conftest import make_slot


def build_pool(node_count: int, horizon: float = 100.0) -> SlotPool:
    return SlotPool.from_slots(
        make_slot(node_id, 0.0, horizon) for node_id in range(node_count)
    )


class TestPartitionNodes:
    def test_round_robin_deal(self):
        assert partition_nodes([5, 1, 3, 2, 4, 0], 2) == [
            [0, 2, 4],
            [1, 3, 5],
        ]

    def test_single_shard_keeps_everything(self):
        assert partition_nodes([2, 0, 1], 1) == [[0, 1, 2]]

    def test_rejects_more_shards_than_nodes(self):
        with pytest.raises(ConfigurationError):
            partition_nodes([0, 1], 3)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ConfigurationError):
            partition_nodes([0, 0, 1], 2)

    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigurationError):
            partition_nodes([0], 0)


class TestPartitionPool:
    def test_rejects_unassigned_node(self):
        pool = build_pool(3)
        with pytest.raises(ConfigurationError):
            partition_pool(pool, [[0], [1]])

    def test_rejects_double_assignment(self):
        pool = build_pool(2)
        with pytest.raises(ConfigurationError):
            partition_pool(pool, [[0, 1], [1]])

    @given(
        node_count=st.integers(min_value=1, max_value=12),
        shards=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60)
    def test_partition_conserves_node_seconds(self, node_count, shards):
        if node_count < shards:
            return
        pool = build_pool(node_count)
        total_before = pool.total_free_time()
        nodes_before = pool.by_node()
        assignments = partition_nodes(sorted(nodes_before), shards)
        pools = partition_pool(pool, assignments)

        assert sum(p.total_free_time() for p in pools) == pytest.approx(
            total_before
        )
        seen: set[int] = set()
        for shard_id, shard_pool in enumerate(pools):
            shard_nodes = shard_pool.by_node()
            # Whole nodes only, matching the assignment exactly.
            assert set(shard_nodes) == set(assignments[shard_id])
            assert not seen.intersection(shard_nodes)
            seen.update(shard_nodes)
            shard_pool.assert_disjoint_per_node()
            for node_id, slots in shard_nodes.items():
                assert sum(s.length for s in slots) == pytest.approx(
                    sum(s.length for s in nodes_before[node_id])
                )
        assert seen == set(nodes_before)


def _commit_one(pool: SlotPool, length: float = 10.0):
    """Commit a reservation on the first long-enough slot, or ``None``."""
    for slot in pool:
        if slot.length >= length:
            window = Window(
                start=slot.start,
                slots=(
                    WindowSlot(
                        slot=slot,
                        required_time=length,
                        cost=length * slot.node.price_per_unit,
                    ),
                ),
            )
            pool.commit_window(window)
            return window
    return None


class TestInterleavedShardOperations:
    """Commit/release/trim interleaved across shards, indexes intact."""

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # shard
                st.sampled_from(["commit", "release"]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_commit_release_conserve_node_seconds(self, ops):
        pool = build_pool(6)
        total = pool.total_free_time()
        pools = partition_pool(pool, partition_nodes(range(6), 3))
        outstanding: dict[int, list[Window]] = {0: [], 1: [], 2: []}
        for shard, action in ops:
            if action == "commit":
                window = _commit_one(pools[shard])
                if window is not None:
                    outstanding[shard].append(window)
            elif outstanding[shard]:
                pools[shard].release(outstanding[shard].pop())
        committed = sum(
            w.processor_time for ws in outstanding.values() for w in ws
        )
        assert sum(p.total_free_time() for p in pools) + committed == (
            pytest.approx(total)
        )
        for shard_pool in pools:
            shard_pool.assert_disjoint_per_node()

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.sampled_from(["commit", "release", "trim"]),
                st.floats(min_value=0.0, max_value=120.0),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bucket_indexes_stay_consistent_under_trim(self, ops):
        pools = partition_pool(
            build_pool(6), assignments := partition_nodes(range(6), 3)
        )
        outstanding: dict[int, list[Window]] = {0: [], 1: [], 2: []}
        clocks = [0.0, 0.0, 0.0]
        for shard, action, value in ops:
            if action == "commit":
                window = _commit_one(pools[shard])
                if window is not None:
                    outstanding[shard].append(window)
            elif action == "release":
                if outstanding[shard]:
                    pools[shard].release(outstanding[shard].pop())
            else:
                # Trims only move forward, like the shared virtual clock.
                clocks[shard] = max(clocks[shard], value)
                pools[shard].trim_before(clocks[shard])
            for shard_id, shard_pool in enumerate(pools):
                shard_pool.assert_disjoint_per_node()
                grouped = shard_pool.by_node()
                # The index serves exactly the slots iteration yields,
                # and never a node belonging to another shard.
                assert set(grouped) <= set(assignments[shard_id])
                indexed = sorted(
                    (s.node.node_id, s.start, s.end)
                    for slots in grouped.values()
                    for s in slots
                )
                iterated = sorted(
                    (s.node.node_id, s.start, s.end) for s in shard_pool
                )
                assert indexed == iterated
                assert shard_pool.node_count() == len(grouped)
