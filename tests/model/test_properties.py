"""Property-based tests (hypothesis) for the core data structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import (
    AllocationError,
    ResourceRequest,
    Slot,
    SlotPool,
    Timeline,
    Window,
    WindowSlot,
)
from repro.model.slot import fits_from, last_start
from tests.conftest import make_node, pool_state

times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw, min_length=0.5, horizon=1000.0):
    start = draw(st.floats(min_value=0.0, max_value=horizon - min_length))
    length = draw(st.floats(min_value=min_length, max_value=horizon - start))
    return (start, start + length)


@st.composite
def disjoint_busy_lists(draw, horizon=100.0, max_chunks=5):
    """Sorted, strictly disjoint busy intervals inside [0, horizon]."""
    count = draw(st.integers(min_value=0, max_value=max_chunks))
    points = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=horizon),
            min_size=2 * count,
            max_size=2 * count,
            unique=True,
        )
    )
    points.sort()
    chunks = []
    for i in range(count):
        start, end = points[2 * i], points[2 * i + 1]
        if end - start > 1e-6:
            chunks.append((start, end))
    return chunks


class TestSlotProperties:
    @given(interval=intervals(min_length=1.0), cut=st.data())
    @settings(max_examples=200)
    def test_split_conserves_time_and_stays_inside(self, interval, cut):
        start, end = interval
        slot = Slot(make_node(0), start, end)
        cut_start = cut.draw(st.floats(min_value=start, max_value=end - 0.5))
        cut_end = cut.draw(st.floats(min_value=cut_start, max_value=end))
        remainders = slot.split(cut_start, cut_end - cut_start)
        removed = cut_end - cut_start
        total = sum(r.length for r in remainders)
        assert total <= slot.length - removed + 1e-6
        for r in remainders:
            assert r.start >= start - 1e-9
            assert r.end <= end + 1e-9
            assert not (cut_start + 1e-9 < r.end and r.start < cut_end - 1e-9)

    @given(interval=intervals(), probe=times)
    @settings(max_examples=200)
    def test_remaining_from_never_exceeds_length(self, interval, probe):
        # A leg longer than the slot fits from no start within it.
        slot = Slot(make_node(0), *interval)
        if probe >= slot.start:
            assert not fits_from(last_start(slot.end, slot.length + 1e-6), probe)

    @given(
        interval=intervals(),
        runtime=times,
        deadline=st.none() | times,
        probe=times,
        earlier=times,
    )
    @settings(max_examples=200)
    def test_fit_is_monotone_in_the_start_and_the_deadline(
        self, interval, runtime, deadline, probe, earlier
    ):
        # A leg that fits from ``probe`` fits from every earlier start,
        # and a deadline only takes fits away.
        end = interval[1]
        with_deadline = last_start(end, runtime, deadline)
        if fits_from(with_deadline, probe):
            assert fits_from(with_deadline, min(earlier, probe))
            assert fits_from(last_start(end, runtime), probe)


class TestTimelineProperties:
    @given(busy=disjoint_busy_lists())
    @settings(max_examples=200)
    def test_busy_plus_free_partitions_interval(self, busy):
        timeline = Timeline(make_node(0), 0.0, 100.0)
        for start, end in busy:
            timeline.add_busy(start, end)
        free = sum(end - start for start, end in timeline.free_intervals())
        assert free + timeline.busy_time() <= 100.0 + 1e-6
        # The partition is exact up to gaps too short to be slots.
        assert free + timeline.busy_time() >= 100.0 - 1e-4 - 1e-9 * len(busy)

    @given(busy=disjoint_busy_lists())
    @settings(max_examples=200)
    def test_free_intervals_are_disjoint_and_sorted(self, busy):
        timeline = Timeline(make_node(0), 0.0, 100.0)
        for start, end in busy:
            timeline.add_busy(start, end)
        gaps = timeline.free_intervals()
        for (s1, e1), (s2, e2) in zip(gaps, gaps[1:]):
            assert e1 <= s2 + 1e-9

    @given(busy=disjoint_busy_lists())
    @settings(max_examples=200)
    def test_free_intervals_really_free(self, busy):
        timeline = Timeline(make_node(0), 0.0, 100.0)
        for start, end in busy:
            timeline.add_busy(start, end)
        for start, end in timeline.free_intervals():
            assert timeline.is_free(start + 1e-9, end - 1e-9)


#: One node object per id, so every slot of a node carries equal columns.
GRID_NODES = [make_node(node_id, performance=2.0 + node_id) for node_id in range(3)]


@st.composite
def grid_slot_lists(draw):
    """Slots of three nodes on a 5-unit grid, nudged by fractions of the
    coalescing gap: exactly touching, within / just beyond the gap,
    overlapping, duplicate and short slots all turn up in a few draws."""
    nudges = st.sampled_from([0.0, 0.0, 5e-10, -5e-10, 3e-9])
    slots = []
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        node = GRID_NODES[draw(st.integers(min_value=0, max_value=2))]
        start = 5.0 * draw(st.integers(min_value=0, max_value=8)) + draw(nudges)
        length = draw(st.sampled_from([0.5, 5.0, 5.0, 10.0])) + draw(nudges)
        slots.append(Slot(node, start, start + length))
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            slots.append(draw(st.sampled_from(slots)))
    return slots


class TestSlotPoolProperties:
    @given(slots=grid_slot_lists())
    @settings(max_examples=400)
    def test_from_slots_equals_one_add_per_slot(self, slots):
        """Whichever way ``from_slots`` builds — in bulk or slot by slot —
        the pool is the one sequential coalescing ``add`` produces, and
        it refuses a list with overlapping slots of one node exactly
        when that ``add`` does."""
        added = SlotPool()
        try:
            for slot in slots:
                added.add(slot)
        except AllocationError:
            with pytest.raises(AllocationError, match="overlaps free slot"):
                SlotPool.from_slots(iter(slots))
            return
        built = SlotPool.from_slots(iter(slots))
        assert pool_state(built) == pool_state(added)
        assert built.generation == added.generation
        built.assert_disjoint_per_node()

    @given(data=st.data())
    @settings(max_examples=100)
    def test_cut_window_preserves_per_node_disjointness(self, data):
        node_count = data.draw(st.integers(min_value=2, max_value=5))
        slots = []
        for node_id in range(node_count):
            start, end = data.draw(intervals(min_length=10.0, horizon=200.0))
            slots.append(Slot(make_node(node_id, performance=2.0), start, end))
        pool = SlotPool.from_slots(slots)
        request = ResourceRequest(node_count=1, reservation_time=4.0)  # 2 units
        target = data.draw(st.sampled_from(slots))
        ws = WindowSlot.for_request(target, request)
        window = Window(start=target.start, slots=(ws,))
        pool.commit_window(window)
        pool.assert_disjoint_per_node()
        # The reserved span is gone from the pool.
        for slot in pool:
            if slot.node.node_id == target.node.node_id:
                assert not (
                    slot.start < window.start + ws.required_time - 1e-9
                    and window.start < slot.end - 1e-9
                )

    @given(data=st.data())
    @settings(max_examples=100)
    def test_iteration_order_always_nondecreasing(self, data):
        count = data.draw(st.integers(min_value=0, max_value=20))
        pool = SlotPool()
        for node_id in range(count):
            start, end = data.draw(intervals(min_length=0.5))
            pool.add(Slot(make_node(node_id), start, end))
        starts = [slot.start for slot in pool]
        assert starts == sorted(starts)
