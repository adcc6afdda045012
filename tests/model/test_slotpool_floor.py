"""The pending floor: ``advance_floor`` against a trim at every step.

A clock step records a floor on the pool in O(1); the pool applies it
through ``trim_before`` when it is next mutated or hands out slots or a
snapshot, and ``len()`` and admission's cost bound apply it on read
without trimming.  The oracle is an *eager* twin that receives the same
operations but calls ``trim_before`` at every floor step, as the broker
did before the floor existed:

* after every operation, ``len`` and ``cheapest_feasible_cost`` on the
  lazy pool (neither applies the floor) equal ``len`` and the object-loop
  ``cheapest_feasible_cost_reference`` on the eager twin;
* after every read that applies the floor, the two pools are equal
  (:func:`tests.conftest.pool_state`).

Floor steps of 0, ε/2, ε, 2ε and 3ε exercise the rule for merging two
floors with nothing between them (``t1 + ε < t2 - ε``), and rows built
at ``start = floor ± ε`` and ``tail = ε`` exercise each comparison of
the trim's rule.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MinCost
from repro.model import ResourceRequest, Slot, SlotPool
from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import floor_survivors
from repro.service.admission import cheapest_feasible_cost

from tests.conftest import make_node, make_slot, pool_state
from tests.model.test_slotarrays import assert_one_order
from tests.service.admission_oracle import cheapest_feasible_cost_reference

EPS = TIME_EPSILON

#: Floor steps: merged with the pending floor (0, 3ε, large) or not
#: (ε/2, ε, 2ε: the pending floor is applied first).
FLOOR_STEPS = (0.0, EPS / 2, EPS, 2 * EPS, 3 * EPS, 7.0)

#: Three request shapes; on a performance-4 node their tasks run 0.5,
#: 5 and 30 time units, so each meets a different tail length.
REQUESTS = (
    ResourceRequest(node_count=1, reservation_time=2.0),
    ResourceRequest(node_count=2, reservation_time=20.0),
    ResourceRequest(node_count=3, reservation_time=120.0, min_performance=3.0),
)

#: Where a hand-built row starts, relative to a coming floor.
ROW_STARTS = (-10.0, -2 * EPS, -EPS, -EPS / 2, 0.0, EPS / 2, EPS, 2 * EPS)


def assert_reads_agree(lazy: SlotPool, eager: SlotPool) -> None:
    """The reads that leave a pending floor pending see the eager pool."""
    pending = lazy.arrays_before_floor()[1]
    assert len(lazy) == len(eager)
    for request in REQUESTS:
        assert cheapest_feasible_cost(request, lazy) == (
            cheapest_feasible_cost_reference(request, eager)
        )
    assert lazy.arrays_before_floor()[1] == pending  # still pending


def row_tails(anchor: float) -> tuple[float, ...]:
    """Tails (``end - floor``) on both sides of each of the trim's tests,
    and on both sides of ``anchor``."""
    return (
        EPS / 2,
        EPS,
        2 * EPS,
        anchor - EPS / 2,
        anchor,
        3.0,
        30.0,
    )


@st.composite
def pool_pairs(draw):
    """Equal lazy and eager pools, each node's slots touching (merged)
    or gapped."""
    slots = []
    for node_id in range(draw(st.integers(1, 5))):
        node = make_node(
            node_id,
            performance=float(draw(st.integers(1, 8))),
            price=float(draw(st.integers(1, 5))),
        )
        cursor = float(draw(st.integers(0, 6)))
        for _ in range(draw(st.integers(1, 4))):
            length = float(draw(st.integers(1, 40)))
            slots.append(Slot(node, cursor, cursor + length))
            cursor += length + float(draw(st.sampled_from([0, 1, 5])))
    pair = [SlotPool.from_slots(slots) for _ in range(2)]
    return pair[0], pair[1]


class TestLazyFloorStorm:
    @settings(max_examples=150, deadline=None)
    @given(pools=pool_pairs(), data=st.data())
    def test_lazy_pool_equals_a_trim_at_every_step(self, pools, data):
        lazy, eager = pools
        clock = 0.0
        committed = []
        fresh_node = 100
        for _ in range(data.draw(st.integers(5, 40))):
            op = data.draw(
                st.sampled_from(
                    ["floor", "floor", "floor", "row", "remove", "commit",
                     "release", "copy", "read"]
                )
            )
            if op == "floor":
                clock += data.draw(st.sampled_from(FLOOR_STEPS))
                lazy.advance_floor(clock)
                eager.trim_before(clock)
            elif op == "row":
                anchor = clock + data.draw(st.sampled_from(FLOOR_STEPS[:-1]))
                start = anchor + data.draw(st.sampled_from(ROW_STARTS))
                end = anchor + data.draw(
                    st.sampled_from(row_tails(EPS))
                )
                if end - start > EPS:
                    fresh_node += 1
                    row = Slot(make_node(fresh_node), start, end)
                    lazy.add(row)
                    eager.add(row)
            elif op == "remove" and len(eager):
                slots = eager.ordered()
                victim = slots[data.draw(st.integers(0, len(slots) - 1))]
                lazy.remove(victim)
                eager.remove(victim)
            elif op == "commit":
                request = data.draw(st.sampled_from(REQUESTS))
                window = MinCost().select(request, iter(eager.ordered()))
                if window is not None:
                    lazy.commit_window(window)
                    eager.commit_window(window)
                    committed.append(window)
            elif op == "release" and committed:
                window = committed.pop(data.draw(st.integers(0, len(committed) - 1)))
                # The broker's retirement: release told the coming clock
                # step, then that step.  Steps of 3ε and more leave the
                # lazy pool's floor pending through the release.
                step = data.draw(st.sampled_from((None,) + FLOOR_STEPS))
                floor = None if step is None else clock + step
                outcomes = []
                for pool in (lazy, eager):
                    try:
                        pool.release(window, floor)
                    except AllocationError:
                        outcomes.append("refused")
                    else:
                        outcomes.append("released")
                assert outcomes[0] == outcomes[1]
                if floor is not None:
                    clock = floor
                    lazy.advance_floor(clock)
                    eager.trim_before(clock)
            elif op == "copy":
                lazy, eager = lazy.copy(), eager.copy()
            elif op == "read":
                assert pool_state(lazy) == pool_state(eager)
            assert_reads_agree(lazy, eager)
            assert_one_order(lazy)
            assert_one_order(eager)
            eager.assert_disjoint_per_node()
        assert pool_state(lazy) == pool_state(eager)


# ----------------------------------------------------------------------
# Hand-built rows at the floor
# ----------------------------------------------------------------------
FLOOR = 50.0


def boundary_cases():
    # The ε anchor puts every tail next to one of the trim's own tests;
    # the 5.0 anchor adds tails of 5 - ε/2 and 5, long tails whose ends
    # are not a whole number of ε from the floor.
    for anchor in (EPS, 5.0):
        for offset in ROW_STARTS:
            for tail in row_tails(anchor):
                if tail - offset > EPS:
                    yield anchor, offset, tail


@pytest.mark.parametrize("anchor, offset, tail", list(boundary_cases()))
def test_row_at_the_floor(anchor, offset, tail):
    """One row starting at ``FLOOR + offset`` and ending ``tail`` past
    the floor, beside a row the floor cuts and one it leaves alone."""
    slots = [
        Slot(make_node(0), FLOOR + offset, FLOOR + tail),
        make_slot(1, 0.0, 200.0),
        make_slot(2, 80.0, 200.0),
    ]
    lazy, eager = (SlotPool.from_slots(slots) for _ in range(2))
    lazy.advance_floor(FLOOR)
    eager.trim_before(FLOOR)
    assert_reads_agree(lazy, eager)
    assert pool_state(lazy) == pool_state(eager)


# ----------------------------------------------------------------------
# The trim's tail test (``is_span(floor, end)`` on a cut row)
# ----------------------------------------------------------------------
def ulps_above(value: float, count: int) -> float:
    for _ in range(count):
        value = math.nextafter(value, math.inf)
    return value


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("floor", [ulps_above(EPS, 1), 2 * EPS, 1.0, FLOOR, 1e9])
def test_above_epsilon_the_dead_row_test_implies_the_tail_test(floor, count):
    """A row ending one to three ulps above ``fl(floor + ε)`` survives
    the dead-row test, and its tail ``fl(end - floor)`` is more than ε:
    for ``floor > ε`` the subtraction is exact, so the tail test never
    decides there.  A cut row starting at or after 0 needs such a floor
    (it starts before ``fl(floor - ε)``)."""
    end = ulps_above(floor + EPS, count)
    assert end - floor > EPS
    kept, start = floor_survivors(np.array([0.0]), np.array([end]), floor)
    assert kept.tolist() == [True] and start.tolist() == [floor]
    pool = SlotPool.from_slots([make_slot(0, 0.0, end)])
    assert pool.trim_before(floor) == 1
    assert [(slot.start, slot.end) for slot in pool] == [(floor, end)]


@pytest.mark.parametrize("end", [1e-30, 5e-324], ids=["1e-30", "subnormal"])
def test_the_tail_test_decides_below_zero(end):
    """At floor ``-ε`` the dead-row bound ``fl(-ε + ε)`` is 0, so a row
    ending at a tiny positive ``end`` survives it, but its tail
    ``fl(end + ε)`` rounds to ε and is not a slot: only the tail test
    drops the cut row (without it, ``Slot(node, -ε, end)`` raises)."""
    floor = -EPS
    assert end > floor + EPS and not end - floor > EPS
    kept, _ = floor_survivors(np.array([-10.0]), np.array([end]), floor)
    assert kept.tolist() == [False]
    pool = SlotPool.from_slots([make_slot(0, -10.0, end), make_slot(1, -10.0, 5.0)])
    lazy = pool.copy()
    assert pool.trim_before(floor) == 2
    assert [(slot.start, slot.end) for slot in pool] == [(floor, 5.0)]
    lazy.advance_floor(floor)
    assert len(lazy) == 1
    assert pool_state(lazy) == pool_state(pool)


@pytest.mark.parametrize("step", [0.0, EPS / 2, EPS, 2 * EPS, 2.5 * EPS, 3 * EPS, 7.0])
def test_two_floor_steps_leave_what_two_trims_leave(step):
    """A floor closer than two epsilons to the pending one applies the
    pending one first: ``[0, 100)`` trimmed at 10 and then at ``10 + ε``
    is ``[10, 100)``, not the ``[10 + ε, 100)`` a single trim leaves."""
    slots = [make_slot(0, 0.0, 100.0), make_slot(1, 10.0 - EPS / 2, 60.0)]
    lazy, eager = (SlotPool.from_slots(slots) for _ in range(2))
    for time in (10.0, 10.0 + step):
        lazy.advance_floor(time)
        eager.trim_before(time)
        assert_reads_agree(lazy, eager)
    assert pool_state(lazy) == pool_state(eager)


class TestTrimsCounted:
    """The floor costs one trim per read that applies it, not one per
    step."""

    @staticmethod
    def count_trims(monkeypatch) -> list:
        calls = []
        trim = SlotPool.trim_before

        def counted(pool, time):
            calls.append(time)
            return trim(pool, time)

        monkeypatch.setattr(SlotPool, "trim_before", counted)
        return calls

    def test_steps_and_floor_aware_reads_do_not_trim(self, monkeypatch):
        pool = SlotPool.from_slots([make_slot(i, float(i), 100.0) for i in range(6)])
        calls = self.count_trims(monkeypatch)
        for time in (1.0, 2.5, 4.0, 4.0, 5.5):
            pool.advance_floor(time)
            assert len(pool) == 6
            cheapest_feasible_cost(REQUESTS[1], pool)
        assert calls == []
        pool.as_arrays()
        assert calls == [5.5]
        # The same floor again, with nothing changed: nothing to trim.
        pool.advance_floor(5.5)
        pool.ordered()
        assert calls == [5.5]

    def test_a_mutation_between_steps_applies_the_floor(self, monkeypatch):
        pool = SlotPool.from_slots([make_slot(0, 0.0, 100.0)])
        calls = self.count_trims(monkeypatch)
        pool.advance_floor(3.0)
        pool.add(make_slot(1, 1.0, 50.0))
        pool.advance_floor(3.0)  # the added slot starts before it
        pool.advance_floor(9.0)
        assert pool.by_node() == {
            0: [Slot(make_node(0), 9.0, 100.0)],
            1: [Slot(make_node(1), 9.0, 50.0)],
        }
        assert calls == [3.0, 9.0]
