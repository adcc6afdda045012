"""Unit tests for per-node busy/free timelines."""

import pytest

from repro.model import InvalidIntervalError, ModelError, Timeline
from repro.model.slot import TIME_EPSILON
from tests.conftest import make_node


@pytest.fixture
def timeline():
    return Timeline(make_node(0), 0.0, 100.0)


class TestConstruction:
    def test_rejects_empty_interval(self):
        with pytest.raises(InvalidIntervalError):
            Timeline(make_node(0), 10.0, 10.0)


class TestAddBusy:
    def test_single_interval(self, timeline):
        timeline.add_busy(10.0, 20.0)
        assert timeline.busy_intervals == [(10.0, 20.0)]

    def test_rejects_empty_busy_interval(self, timeline):
        with pytest.raises(InvalidIntervalError):
            timeline.add_busy(10.0, 10.0)

    def test_rejects_busy_outside_interval(self, timeline):
        with pytest.raises(ModelError):
            timeline.add_busy(90.0, 110.0)
        with pytest.raises(ModelError):
            timeline.add_busy(-5.0, 5.0)

    def test_rejects_overlap_by_default(self, timeline):
        timeline.add_busy(10.0, 20.0)
        with pytest.raises(ModelError):
            timeline.add_busy(15.0, 25.0)

    def test_adjacent_intervals_merge(self, timeline):
        timeline.add_busy(10.0, 20.0)
        timeline.add_busy(20.0, 30.0)
        assert timeline.busy_intervals == [(10.0, 30.0)]

    def test_intervals_stay_sorted(self, timeline):
        timeline.add_busy(50.0, 60.0)
        timeline.add_busy(10.0, 20.0)
        timeline.add_busy(30.0, 40.0)
        assert timeline.busy_intervals == [(10.0, 20.0), (30.0, 40.0), (50.0, 60.0)]


class TestQueries:
    def test_busy_time_and_utilization(self, timeline):
        timeline.add_busy(0.0, 25.0)
        timeline.add_busy(50.0, 75.0)
        assert timeline.busy_time() == pytest.approx(50.0)
        assert timeline.utilization() == pytest.approx(0.5)

    def test_empty_timeline_one_big_gap(self, timeline):
        assert timeline.free_intervals() == [(0.0, 100.0)]

    def test_free_intervals_between_busy(self, timeline):
        timeline.add_busy(10.0, 20.0)
        timeline.add_busy(40.0, 50.0)
        assert timeline.free_intervals() == [(0.0, 10.0), (20.0, 40.0), (50.0, 100.0)]

    def test_free_intervals_respect_min_length(self, timeline):
        """A gap is published only if it is a slot: longer than
        ``TIME_EPSILON``."""
        timeline.add_busy(TIME_EPSILON / 2, 50.0)
        timeline.add_busy(60.0, 100.0 - 2 * TIME_EPSILON)
        assert timeline.free_intervals() == [
            (50.0, 60.0),
            (100.0 - 2 * TIME_EPSILON, 100.0),
        ]

    def test_a_gap_of_exactly_epsilon_is_not_a_slot(self):
        """The gap test and ``Slot`` read one rule, so a gap ``Slot``
        would refuse is never emitted (it raised ``InvalidIntervalError``
        when the gap test was ``>=``)."""
        timeline = Timeline(make_node(0), 0.0, 10.0)
        timeline.add_busy(TIME_EPSILON, 10.0)
        assert timeline.free_intervals() == []
        assert timeline.free_slots() == []

    def test_busy_at_edges_leaves_inner_gap(self, timeline):
        timeline.add_busy(0.0, 30.0)
        timeline.add_busy(70.0, 100.0)
        assert timeline.free_intervals() == [(30.0, 70.0)]

    def test_fully_busy_has_no_gaps(self, timeline):
        timeline.add_busy(0.0, 100.0)
        assert timeline.free_intervals() == []
        assert timeline.utilization() == pytest.approx(1.0)

    def test_free_slots_carry_the_node(self, timeline):
        timeline.add_busy(10.0, 20.0)
        slots = timeline.free_slots()
        assert len(slots) == 2
        assert all(slot.node == timeline.node for slot in slots)

    def test_is_free(self, timeline):
        timeline.add_busy(10.0, 20.0)
        assert timeline.is_free(0.0, 10.0)
        assert timeline.is_free(20.0, 100.0)
        assert not timeline.is_free(5.0, 15.0)
        assert not timeline.is_free(15.0, 18.0)

    def test_is_free_outside_interval(self, timeline):
        assert not timeline.is_free(-10.0, 5.0)
        assert not timeline.is_free(95.0, 105.0)

    def test_is_free_of_empty_span(self, timeline):
        timeline.add_busy(10.0, 20.0)
        assert timeline.is_free(15.0, 15.0)

    def test_free_plus_busy_partitions_interval(self, timeline):
        timeline.add_busy(10.0, 20.0)
        timeline.add_busy(40.0, 70.0)
        total_free = sum(end - start for start, end in timeline.free_intervals())
        assert total_free + timeline.busy_time() == pytest.approx(100.0)

    def test_commit_after_generation_round_trip(self, timeline):
        # Marking one of the free gaps busy shrinks it consistently.
        timeline.add_busy(10.0, 20.0)
        timeline.add_busy(25.0, 35.0)
        assert timeline.free_intervals()[1] == (20.0, 25.0)
