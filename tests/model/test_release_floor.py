"""``SlotPool.release(window, floor)``: told the time the caller trims to
next, a release leaves out the spans that trim would delete anyway.

The contract is an equality of pools, not a description of what is
skipped: ``release(w, t); trim_before(t)`` and ``release(w);
trim_before(t)`` must leave the same ordered slots, the same per-node
buckets and the same column bytes (:func:`tests.conftest.pool_state`),
for every pool, window and ``t`` — in particular for ``t`` within a few
:data:`TIME_EPSILON` of a released span's end, where a coalesced right
neighbour decides whether the span may be left out.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Slot, SlotPool, Window, WindowSlot
from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON

from tests.conftest import free_spans, make_node, make_slot, pool_state

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


def release_then_trim(pool: SlotPool, window: Window, time: float, **floor):
    """The pool's state after ``release`` and ``trim_before(time)``, and
    whether the release was refused."""
    try:
        pool.release(window, **floor)
    except AllocationError:
        refused = True
    else:
        refused = False
    pool.trim_before(time)
    return refused, pool_state(pool)


class TestReleaseWithFloorEqualsReleaseThenTrim:
    @settings(max_examples=300, deadline=None)
    @given(case=cut_pools())
    def test_same_pool_after_the_trim(self, case):
        pool, cut, released, time = case
        pool.commit_window(cut)
        plain, told = pool.copy(), pool.copy()
        assert release_then_trim(told, released, time, floor=time) == (
            release_then_trim(plain, released, time)
        )

    @settings(max_examples=100, deadline=None)
    @given(case=cut_pools(), later=st.sampled_from([0.0, TIME_EPSILON, 0.5, 7.0]))
    def test_a_later_trim_is_covered_too(self, case, later):
        """The federation releases at ``now`` and its shards trim at
        their next clock step, ``now`` or later."""
        pool, cut, released, time = case
        pool.commit_window(cut)
        plain, told = pool.copy(), pool.copy()
        assert release_then_trim(told, released, time + later, floor=time) == (
            release_then_trim(plain, released, time + later)
        )


#: Where a pending floor sits relative to the released window's start.
START_OFFSETS = tuple(
    factor * TIME_EPSILON for factor in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
) + (2.0, 8.0)
#: ``floor - pending``: the floor applies the pending one first (up to
#: 2ε) or replaces it (beyond).
FLOOR_STEPS = tuple(
    factor * TIME_EPSILON for factor in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 3.5)
) + (1.0, 7.0)
#: How far the released window starts before the cut one: on its start,
#: within the coalescing gap of it, or well inside the left remainder —
#: free time a pending floor may be about to drop.
START_SHIFTS = tuple(
    factor * TIME_EPSILON for factor in (0.0, 0.5, 1.0, 1.5, -0.5, -1.0)
) + (3.0,)


@st.composite
def pending_cases(draw):
    """A :func:`cut_pools` case whose window is released (possibly
    starting earlier than it was cut) under a pending floor, told a
    floor a step above it."""
    pool, cut, released, time = draw(cut_pools())
    shift = draw(st.sampled_from(START_SHIFTS))
    released = Window(
        start=released.start - shift,
        slots=tuple(
            WindowSlot(ws.slot, ws.required_time + shift, 1.0)
            for ws in released.slots
        ),
    )
    pending = draw(
        st.one_of(
            st.just(time),
            st.sampled_from(START_OFFSETS).map(lambda offset: cut.start + offset),
        )
    )
    return pool, cut, released, pending, pending + draw(st.sampled_from(FLOOR_STEPS))


class TestReleaseUnderAPendingFloor:
    """The broker's retirement: a floor is pending, ``release(w, f)`` is
    told the next clock step ``f`` and the step follows.  The lazy pool
    leaves the pending floor pending when ``f`` is more than two epsilons
    above it; the eager twin trims at each step.  Windows starting
    before the cut one overlap free time the pending floor drops."""

    @settings(max_examples=400, deadline=None)
    @given(case=pending_cases())
    def test_lazy_release_equals_a_trim_at_each_step(self, case):
        pool, cut, released, pending, floor = case
        pool.commit_window(cut)
        lazy, eager = pool.copy(), pool.copy()
        lazy.advance_floor(pending)
        eager.trim_before(pending)
        outcomes = []
        for twin in (lazy, eager):
            try:
                twin.release(released, floor)
            except AllocationError:
                outcomes.append("refused")
            else:
                outcomes.append("released")
        assert outcomes[0] == outcomes[1]
        lazy.advance_floor(floor)
        eager.trim_before(floor)
        assert pool_state(lazy) == pool_state(eager)
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
    pool.release(window, floor=window.finish)
    # Node 1's leg ended 5 before the floor: not inserted.  Node 2's ends
    # exactly at it and merges with both remainders, as without a floor.
    assert free_spans(pool) == {1: [(0.0, 20.0), (25.0, 100.0)], 2: [(0.0, 100.0)]}
    pool.trim_before(window.finish)
    assert free_spans(pool) == {1: [(30.0, 100.0)], 2: [(30.0, 100.0)]}


@pytest.mark.parametrize(
    "epsilons_past, node_1",
    [(1.5, [(0.0, 100.0)]), (2.5, [(0.0, 20.0), (25.0, 100.0)])],
)
def test_two_epsilon_boundary(committed, epsilons_past, node_1):
    """Node 1's leg ends at 25: inside two epsilons of the floor it is
    inserted (and coalesces), beyond them it is left out."""
    pool, window = committed
    pool.release(window, floor=25.0 + epsilons_past * TIME_EPSILON)
    assert free_spans(pool) == {1: node_1, 2: [(0.0, 100.0)]}


def test_future_tail_of_an_early_finish_is_returned(committed):
    pool, window = committed
    # completion_factor 0.5: the job is retired at 25, half way through.
    pool.release(window, floor=25.0)
    pool.trim_before(25.0)
    assert free_spans(pool) == {1: [(25.0, 100.0)], 2: [(25.0, 100.0)]}


def test_double_release_of_a_live_span_raises_and_changes_nothing(committed):
    pool, window = committed
    pool.release(window, floor=window.finish)
    before = pool_state(pool)
    with pytest.raises(AllocationError, match="double release"):
        pool.release(window, floor=window.finish)
    assert pool_state(pool) == before


def test_overlap_is_checked_for_spans_that_are_left_out(committed):
    pool, window = committed
    pool.add(make_slot(1, 21.0, 24.0))  # free time inside node 1's past leg
    before = pool_state(pool)
    with pytest.raises(AllocationError, match="node 1"):
        pool.release(window, floor=90.0)
    assert pool_state(pool) == before
