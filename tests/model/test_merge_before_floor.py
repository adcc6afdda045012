"""The co-allocator's union: shard snapshots, each clamped to its shard's
floor, merged.

``merge_snapshots`` over the shards' ``as_arrays()`` must equal the
snapshot of the pool the co-allocator used to build — ``SlotPool.from_slots``
over every shard's slots with the floor applied one slot at a time
(``naive_trim``) — column for column, dtype for dtype, node table and
``slot_at`` on every row included, and leave every shard's stored slots
as it found them.  The shards are the ulp-adversarial pools of
``tests/strategies.py``, dealt node by node round-robin into one to four
shards, each with no floor, a floor below every row, a floor that
empties a node, or a floor at a row's start or end, moved by 0, ±ε/2, ±ε
or ±2ε; and a generated fleet dealt the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import Slot, SlotPool
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import merge_snapshots

from tests.conftest import SNAPSHOT_COLUMNS, make_slot
from tests.model.test_slotarrays import naive_trim
from tests.strategies import ADVERSARIAL, adversarial_cases

EPS = TIME_EPSILON

#: How far a drawn floor sits from the row start or end it is drawn at.
OFFSETS = (0.0, EPS / 2, -EPS / 2, EPS, -EPS, 2 * EPS, -2 * EPS)


def deal(slots, count: int) -> list[list[Slot]]:
    """``slots`` dealt into ``count`` shards, node by node round-robin,
    so no node is in two shards."""
    node_ids = sorted({slot.node.node_id for slot in slots})
    shard_of = {node_id: index % count for index, node_id in enumerate(node_ids)}
    shards: list[list[Slot]] = [[] for _ in range(count)]
    for slot in slots:
        shards[shard_of[slot.node.node_id]].append(slot)
    return shards


@st.composite
def floors_for(draw, slots) -> float | None:
    """No floor, one below every row, one that empties a node, or one at
    a row's start or end moved by one of :data:`OFFSETS`."""
    kind = draw(st.sampled_from(("none", "below", "empties", "row", "row", "row")))
    if kind == "none" or not slots:
        return None
    if kind == "below":
        return min(slot.start for slot in slots) - 10.0
    if kind == "empties":
        node_id = draw(st.sampled_from(sorted({slot.node.node_id for slot in slots})))
        return max(slot.end for slot in slots if slot.node.node_id == node_id)
    slot = draw(st.sampled_from(slots))
    at = draw(st.sampled_from((slot.start, slot.end)))
    return at + draw(st.sampled_from(OFFSETS))


@st.composite
def sharded(draw):
    """Shard slot lists of an adversarial case and one floor per shard."""
    case = draw(adversarial_cases())
    shards = deal(case.slots, draw(st.integers(min_value=1, max_value=4)))
    return [(slots, draw(floors_for(slots))) for slots in shards]


def lazy_shard(slots, floor) -> SlotPool:
    """A shard with its floor raised to ``floor`` and nothing trimmed."""
    pool = SlotPool.from_slots(slots)
    if floor is not None:
        pool.advance_floor(floor)
    return pool


def trimmed_union(shards) -> SlotPool:
    """The oracle: each shard's slots cut to its floor one by one, then
    one bulk-built pool of all of them."""
    slots = []
    for shard_slots, floor in shards:
        if floor is not None:
            shard_slots = naive_trim(shard_slots, floor)[1]
        slots += shard_slots
    return SlotPool.from_slots(slots)


def assert_union_equals(shards) -> None:
    pools = [lazy_shard(slots, floor) for slots, floor in shards]
    stored = [pool._store.entries() for pool in pools]
    merged = merge_snapshots([pool.as_arrays() for pool in pools])
    expected = trimmed_union(shards).as_arrays()
    for column in SNAPSHOT_COLUMNS:
        got, want = getattr(merged, column), getattr(expected, column)
        assert got.dtype == want.dtype, column
        assert got.tobytes() == want.tobytes(), column
    assert merged.os_names == expected.os_names
    # A row the floor keeps as it is reads the shard's own slot; a row
    # it cuts reads a new one.
    inputs = {id(slot) for slots, _ in shards for slot in slots}
    for row in range(expected.slot_count):
        slot, want = merged.slot_at(row), expected.slot_at(row)
        assert slot == want, row
        assert (slot is want) == (id(want) in inputs), row
    assert merged.slot_objects() == expected.slot_objects()
    # The shards are untouched: their floors, and the slots they store.
    for pool, (_, floor), entries in zip(pools, shards, stored):
        assert pool._floor == (-np.inf if floor is None else floor)
        assert pool._store.entries() is entries


class TestAgainstTheTrimmedUnion:
    @ADVERSARIAL
    @given(shards=sharded())
    def test_adversarial_shards(self, shards):
        assert_union_equals(shards)

    @pytest.mark.parametrize("offset", OFFSETS)
    @pytest.mark.parametrize("at", ("start", "end"))
    def test_floor_at_a_row(self, at, offset):
        # Node 1's middle slot is the row the floor is drawn at.
        shards = deal(
            [
                make_slot(0, 0.0, 50.0),
                make_slot(1, 5.0, 10.0),
                make_slot(1, 12.0, 20.0),
                make_slot(1, 30.0, 40.0),
                make_slot(2, 11.0, 12.0 + EPS),
                make_slot(3, 12.0, 60.0),
            ],
            2,
        )
        floor = (12.0 if at == "start" else 20.0) + offset
        assert_union_equals([(shards[0], floor), (shards[1], floor + 1.0)])

    def test_a_floor_that_empties_a_node(self):
        shards = deal([make_slot(0, 0.0, 10.0), make_slot(1, 0.0, 30.0)], 2)
        assert_union_equals([(shards[0], 10.0), (shards[1], None)])
        merged = merge_snapshots([lazy_shard(slots, 10.0).as_arrays() for slots in shards])
        assert merged.node_id.tolist() == [1]
        assert merged.node_row.tolist() == [0]

    def test_no_floor_and_a_floor_below_every_row(self):
        slots = [make_slot(node, float(node), 40.0 + node) for node in range(6)]
        shards = deal(slots, 3)
        assert_union_equals(
            [(shards[0], None), (shards[1], -5.0), (shards[2], None)]
        )

    def test_empty_shards(self):
        assert_union_equals([([], None), ([make_slot(0, 0.0, 5.0)], 5.0)])
        assert merge_snapshots([]).slot_count == 0

    @pytest.mark.parametrize("floor", (0.0, 37.5, 250.0))
    def test_a_generated_fleet_split_into_shards(self, floor):
        environment = EnvironmentGenerator(EnvironmentConfig(node_count=32, seed=7))
        slots = environment.generate().slot_pool().ordered()
        shards = deal(slots, 4)
        assert_union_equals(
            [(shard, floor + index) for index, shard in enumerate(shards)]
        )


def test_the_union_is_sorted_with_no_ties():
    shards = deal([make_slot(node, 0.0, 10.0) for node in range(8)], 4)
    merged = merge_snapshots([lazy_shard(slots, None).as_arrays() for slots in shards])
    keys = list(zip(merged.start, merged.end, merged.node_id[merged.node_row]))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert np.all(np.diff(merged.start) >= 0)
