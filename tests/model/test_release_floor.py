"""``SlotPool.release(window)`` under a floor: a release checks and
inserts its spans against the pool as reads see it.

The contract is an equality of pools, not a description of what is
skipped: raising the floor to ``t`` and then releasing ``w`` must leave
the same reads — ordered slots, per-node view and column bytes
(:func:`tests.conftest.pool_state`) — as releasing ``w`` and then
raising the floor, and as releasing ``w`` into a pool rebuilt from what
it shows at ``t``, for every pool, window and ``t``: in particular for
``t`` within a few :data:`TIME_EPSILON` of a released span's end, where
a coalesced right neighbour decides whether the span is stored at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Slot, SlotPool, Window, WindowSlot
from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON

from tests.conftest import free_spans, make_node, make_slot, pool_state, stored_spans
from tests.model.test_slotpool_floor import materialized

#: ``t - span_end`` for the trim times drawn next to a released span's
#: end: both sides of the two-epsilon rule and of the one-epsilon
#: coalescing reach, and the boundary itself.
TRIM_OFFSETS = tuple(
    factor * TIME_EPSILON for factor in (3.0, 2.0, 1.5, 1.0, 0.5, 0.0, -1.0)
)
#: How far a released leg ends from the reserved span cut out of the
#: pool, i.e. from the right remainder's start: touching, or off by up
#: to the coalescing gap either way.
END_JITTER = tuple(factor * TIME_EPSILON for factor in (0.0, 0.5, 1.0, -0.5, -1.0))


@st.composite
def cut_pools(draw):
    """A pool, a window cut out of it, the (jittered) window to release
    and a trim time.

    Host slots sit on an integer grid with optional touching or gapped
    same-node neighbours, so the cut's remainders and the pool's other
    slots coalesce with the released spans in every combination.
    """
    window_start = float(draw(st.integers(12, 40)))
    slots = []
    hosts = []
    for node_id in range(draw(st.integers(1, 5))):
        node = make_node(node_id)
        length = draw(st.integers(5, 30))
        host_start = window_start - draw(st.sampled_from([0, 1, 6, 12]))
        host_end = window_start + length + draw(st.sampled_from([0, 1, 6, 40]))
        host = Slot(node, host_start, host_end)
        hosts.append((host, float(length)))
        slots.append(host)
        # Same-node slots before and after the host: touching (merged
        # into it) or gapped.
        before = draw(st.sampled_from([None, 0, 2]))
        if before is not None:
            slots.append(Slot(node, host_start - before - 6.0, host_start - before))
        after = draw(st.sampled_from([None, 0, 2]))
        if after is not None:
            slots.append(Slot(node, host_end + after, host_end + after + 20.0))
    pool = SlotPool.from_slots(draw(st.permutations(slots)))
    cut = Window(
        start=window_start,
        slots=tuple(WindowSlot(host, length, 1.0) for host, length in hosts),
    )
    released = Window(
        start=window_start,
        slots=tuple(
            WindowSlot(host, length + draw(st.sampled_from(END_JITTER)), 1.0)
            for host, length in hosts
        ),
    )
    span_ends = [window_start + ws.required_time for ws in released.slots]
    time = draw(
        st.one_of(
            st.builds(
                lambda end, offset: end + offset,
                st.sampled_from(span_ends),
                st.sampled_from(TRIM_OFFSETS),
            ),
            st.integers(0, 90).map(float),
            st.floats(0.0, 90.0, allow_nan=False),
        )
    )
    return pool, cut, released, time


def released(pool: SlotPool, window: Window):
    """The pool's reads after ``release(window)``, and whether the
    release was refused."""
    try:
        pool.release(window)
    except AllocationError:
        refused = True
    else:
        refused = False
    return refused, pool_state(pool)


def floor_then_release(pool: SlotPool, window: Window, time: float):
    pool.advance_floor(time)
    return released(pool, window)


def release_then_floor(pool: SlotPool, window: Window, time: float):
    refused, _ = released(pool, window)
    pool.advance_floor(time)
    return refused, pool_state(pool)


def assert_release_then_floor_agrees(pool, window, time, expected) -> None:
    """Releasing before the floor rises reads as releasing after it,
    except that only the release before may be refused: a span may
    overlap, by more than the gap, free time the floor then drops."""
    refused, state = release_then_floor(pool, window, time)
    assert refused or not expected[0]
    if not refused:
        assert state == expected[1]


class TestReleaseWithFloorEqualsReleaseThenTrim:
    @settings(max_examples=300, deadline=None)
    @given(case=cut_pools())
    def test_same_pool_after_the_trim(self, case):
        pool, cut, window, time = case
        pool.commit_window(cut)
        plain, told, rebuilt = pool.copy(), pool.copy(), pool.copy()
        rebuilt.advance_floor(time)
        expected = released(materialized(rebuilt), window)
        assert floor_then_release(told, window, time) == expected
        told.trim_before(time)
        assert pool_state(told) == expected[1]
        assert_release_then_floor_agrees(plain, window, time, expected)

    @settings(max_examples=100, deadline=None)
    @given(case=cut_pools(), later=st.sampled_from([0.0, 3 * TIME_EPSILON, 0.5, 7.0]))
    def test_a_later_trim_is_covered_too(self, case, later):
        """The federation releases at ``now`` into shards whose floor is
        ``now``, and their clocks move on from there.  (A step of at most
        2ε is where one clamp of a stored slot and a clamp of a slot
        stored at the first floor part: tests/model/test_slotpool_floor.py
        pins the rule there.)"""
        pool, cut, window, time = case
        pool.commit_window(cut)
        plain, told = pool.copy(), pool.copy()
        refused, _ = floor_then_release(told, window, time)
        told.advance_floor(time + later)
        assert_release_then_floor_agrees(
            plain, window, time + later, (refused, pool_state(told))
        )


#: Where the floor sits relative to the released window's start.
START_OFFSETS = tuple(
    factor * TIME_EPSILON for factor in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
) + (2.0, 8.0)
#: ``floor - first``: steps a rebuild at every step reads the same
#: through (none of at most ε, where a slot cut to the first floor reads
#: as cut to the second; see tests/model/test_slotpool_floor.py).
FLOOR_STEPS = tuple(
    factor * TIME_EPSILON for factor in (0.0, 2.0, 2.5, 3.0, 3.5)
) + (1.0, 7.0)
#: How far the released window starts before the cut one: on its start,
#: within the coalescing gap of it, or well inside the left remainder —
#: free time the floor may have dropped.
START_SHIFTS = tuple(
    factor * TIME_EPSILON for factor in (0.0, 0.5, 1.0, 1.5, -0.5, -1.0)
) + (3.0,)


@st.composite
def stepped_cases(draw):
    """A :func:`cut_pools` case whose window is released (possibly
    starting earlier than it was cut) under one floor, before a step to
    a second."""
    pool, cut, released, time = draw(cut_pools())
    shift = draw(st.sampled_from(START_SHIFTS))
    released = Window(
        start=released.start - shift,
        slots=tuple(
            WindowSlot(ws.slot, ws.required_time + shift, 1.0)
            for ws in released.slots
        ),
    )
    first = draw(
        st.one_of(
            st.just(time),
            st.sampled_from(START_OFFSETS).map(lambda offset: cut.start + offset),
        )
    )
    return pool, cut, released, first, first + draw(st.sampled_from(FLOOR_STEPS))


class TestReleaseUnderAPendingFloor:
    """The broker's retirement: the floor is raised, the window released
    and the clock steps on.  The stored-rows pool only raises its floor;
    the eager twin is rebuilt from what it shows at each step.  Windows
    starting before the cut one overlap free time the floor drops."""

    @settings(max_examples=400, deadline=None)
    @given(case=stepped_cases())
    def test_lazy_release_equals_a_trim_at_each_step(self, case):
        pool, cut, window, first, second = case
        pool.commit_window(cut)
        lazy = pool.copy()
        lazy.advance_floor(first)
        eager = pool.copy()
        eager.advance_floor(first)
        eager = materialized(eager)
        outcomes = [released(twin, window)[0] for twin in (lazy, eager)]
        assert outcomes[0] == outcomes[1]
        lazy.advance_floor(second)
        eager.advance_floor(second)
        assert pool_state(lazy) == pool_state(materialized(eager))
        lazy.assert_disjoint_per_node()


# ----------------------------------------------------------------------
# Hand-built boundary cases
# ----------------------------------------------------------------------
def two_leg_window(short: Slot, long: Slot) -> Window:
    """Legs ``[20, 25)`` and ``[20, 30)``: the window finishes at 30."""
    return Window(
        start=20.0,
        slots=(WindowSlot(short, 5.0, 1.0), WindowSlot(long, 10.0, 1.0)),
    )


@pytest.fixture
def committed():
    short, long = make_slot(1, 0.0, 100.0), make_slot(2, 0.0, 100.0)
    pool = SlotPool.from_slots([short, long])
    window = two_leg_window(short, long)
    pool.commit_window(window)
    return pool, window


def test_past_leg_is_left_out_and_boundary_leg_still_coalesces(committed):
    pool, window = committed
    pool.advance_floor(window.finish)
    pool.release(window)
    # Node 1's leg ended 5 before the floor and is not stored (the dead
    # [0, 20) waits for the trim).  Node 2's ends exactly at the floor and
    # merges with its right remainder, as without a floor; its dead left
    # remainder is deleted first.
    assert stored_spans(pool) == {
        1: [(0.0, 20.0), (25.0, 100.0)],
        2: [(20.0, 100.0)],
    }
    assert free_spans(pool) == {1: [(30.0, 100.0)], 2: [(30.0, 100.0)]}
    pool.trim_before(window.finish)
    assert free_spans(pool) == {1: [(30.0, 100.0)], 2: [(30.0, 100.0)]}


@pytest.mark.parametrize(
    "epsilons_past, node_1",
    [(0.5, [(20.0, 100.0)]), (1.5, [(0.0, 20.0), (25.0, 100.0)])],
    ids=["1.5-node_10", "2.5-node_11"],
)
def test_two_epsilon_boundary(committed, epsilons_past, node_1):
    """Node 1's leg ends at 25, where its right remainder starts.  With
    the floor half an ε past 25 the remainder is not cut, the leg joins
    it and is stored; one and a half ε past, the remainder reads as cut
    to the floor, more than ε from the leg's end, and the dead leg is
    not stored.  Either way node 1 reads from the floor on: within two
    epsilons of the floor, whether a past leg is stored changes no read."""
    pool, window = committed
    floor = 25.0 + epsilons_past * TIME_EPSILON
    pool.advance_floor(floor)
    pool.release(window)
    assert stored_spans(pool)[1] == node_1
    assert free_spans(pool) == {1: [(floor, 100.0)], 2: [(floor, 100.0)]}


def test_future_tail_of_an_early_finish_is_returned(committed):
    pool, window = committed
    # completion_factor 0.5: the job is retired at 25, half way through.
    pool.advance_floor(25.0)
    pool.release(window)
    pool.trim_before(25.0)
    assert free_spans(pool) == {1: [(25.0, 100.0)], 2: [(25.0, 100.0)]}


def test_double_release_of_a_live_span_raises_and_changes_nothing(committed):
    pool, window = committed
    # Retired half way: both legs reach the floor, so both are live.
    pool.advance_floor(25.0)
    pool.release(window)
    before = pool_state(pool)
    with pytest.raises(AllocationError, match="double release"):
        pool.release(window)
    assert pool_state(pool) == before


def test_overlap_is_checked_for_spans_that_are_left_out(committed):
    pool, window = committed
    pool.add(make_slot(1, 21.0, 24.0))  # free time inside node 1's past leg
    before = pool_state(pool)
    with pytest.raises(AllocationError, match="node 1"):
        pool.release(window)
    assert pool_state(pool) == before
