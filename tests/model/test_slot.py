"""Unit tests for :class:`repro.model.Slot`."""

import pytest

from repro.model import InvalidIntervalError, ModelError, Slot
from repro.model.slot import TIME_EPSILON, fits_from, last_start
from tests.conftest import make_node, make_slot


class TestConstruction:
    def test_length(self):
        assert make_slot(0, 10.0, 35.0).length == pytest.approx(25.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(InvalidIntervalError):
            make_slot(0, 10.0, 10.0)

    def test_rejects_inverted_interval(self):
        with pytest.raises(InvalidIntervalError):
            make_slot(0, 10.0, 5.0)

    def test_error_carries_bounds(self):
        with pytest.raises(InvalidIntervalError) as excinfo:
            make_slot(0, 7.0, 3.0)
        assert excinfo.value.start == 7.0
        assert excinfo.value.end == 3.0


class TestContainment:
    """Whether a leg fits a slot is ``fits_from(last_start(end, r), t)``
    with the window start at or after the slot's start: the one float
    test of "a leg fits from t" that every scan, check and cut reads."""

    def test_contains_inner_interval(self):
        assert fits_from(last_start(50.0, 10.0), 10.0)

    def test_contains_exact_bounds(self):
        assert fits_from(last_start(50.0, 50.0), 0.0)

    def test_does_not_contain_overhang(self):
        slot = make_slot(0, 0.0, 50.0)
        assert not fits_from(last_start(slot.end, 11.0), 40.0)
        with pytest.raises(ModelError):
            slot.split(-1.0, 11.0)  # starts before the slot

    def test_can_host_at_start(self):
        assert fits_from(last_start(30.0, 25.0), 5.0)
        assert not fits_from(last_start(30.0, 25.1), 5.0)

    def test_can_host_mid_slot(self):
        assert fits_from(last_start(30.0, 20.0), 10.0)
        assert not fits_from(last_start(30.0, 20.5), 10.0)

    def test_can_host_rejects_negative_duration(self):
        with pytest.raises(ModelError):
            make_slot(0, 0.0, 10.0).split(0.0, -1.0)

    def test_remaining_from(self):
        # A 30-unit leg in [10, 40) fits from 10 and no later.
        assert last_start(40.0, 30.0) == 10.0
        assert fits_from(last_start(40.0, 30.0), 10.0)
        assert not fits_from(last_start(40.0, 30.0), 10.5)

    def test_deadline_folds_into_the_end(self):
        assert last_start(50.0, 5.0, deadline=30.0) == 25.0
        assert last_start(50.0, 5.0, deadline=80.0) == 45.0

    def test_tolerance_is_one_epsilon_below_the_start(self):
        assert fits_from(10.0, 10.0 + TIME_EPSILON / 2)
        assert not fits_from(10.0, 10.0 + 2 * TIME_EPSILON)

    def test_a_runtime_far_above_the_start_reads_the_same_float(self):
        # The slot end sits a few ulps inside ``end - start >= r - eps``,
        # a spelling the predicate replaced; the predicate rejects it,
        # and so does the cut that reads it.
        start, end, runtime = 0.8800301687734118, 1522731.6770924227, 1522730.797062255
        assert end - start >= runtime - TIME_EPSILON
        assert not fits_from(last_start(end, runtime), start)
        with pytest.raises(ModelError):
            make_slot(0, start, end).split(start, runtime)


class TestSplit:
    def test_split_middle_returns_both_remainders(self):
        slot = make_slot(0, 0.0, 100.0)
        left, right = slot.split(30.0, 30.0)
        assert (left.start, left.end) == (0.0, 30.0)
        assert (right.start, right.end) == (60.0, 100.0)
        assert left.node == slot.node
        assert right.node == slot.node

    def test_split_at_start_returns_right_only(self):
        (right,) = make_slot(0, 0.0, 100.0).split(0.0, 40.0)
        assert (right.start, right.end) == (40.0, 100.0)

    def test_split_at_end_returns_left_only(self):
        (left,) = make_slot(0, 0.0, 100.0).split(60.0, 40.0)
        assert (left.start, left.end) == (0.0, 60.0)

    def test_split_whole_slot_returns_nothing(self):
        assert make_slot(0, 0.0, 100.0).split(0.0, 100.0) == []

    def test_split_respects_min_length(self):
        """A remainder is kept only if it is a slot: longer than
        ``TIME_EPSILON``, so one of exactly ``TIME_EPSILON`` goes."""
        slot = make_slot(0, 0.0, 100.0)
        assert slot.split(TIME_EPSILON / 2, 100.0 - TIME_EPSILON) == []
        (right,) = slot.split(TIME_EPSILON, 10.0)
        assert (right.start, right.end) == (TIME_EPSILON + 10.0, 100.0)
        (left,) = slot.split(2 * TIME_EPSILON, 100.0 - 2 * TIME_EPSILON)
        assert (left.start, left.end) == (0.0, 2 * TIME_EPSILON)

    def test_split_remainders_stay_inside_the_slot(self):
        """The fit tests' ε lets a reservation start up to ε before the
        slot or end up to ε past it; the remainders are clamped into the
        slot, so a cut never grows it."""
        slot = make_slot(0, 1.0, 8.0)
        (right,) = slot.split(1.0 - TIME_EPSILON / 2, TIME_EPSILON / 4)
        assert (right.start, right.end) == (1.0, 8.0)
        short = make_slot(0, 0.0, 1.0 - 1.2 * TIME_EPSILON)
        (left,) = short.split(1.0 - TIME_EPSILON / 2, TIME_EPSILON / 4)
        assert (left.start, left.end) == (short.start, short.end)

    def test_split_outside_slot_raises(self):
        with pytest.raises(ModelError):
            make_slot(0, 10.0, 20.0).split(5.0, 10.0)

    def test_split_overhanging_the_end_raises(self):
        with pytest.raises(ModelError):
            make_slot(0, 10.0, 20.0).split(15.0, 5.5)

    def test_split_rejects_negative_duration(self):
        with pytest.raises(ModelError):
            make_slot(0, 0.0, 10.0).split(5.0, -1.0)

    def test_split_conserves_time(self):
        slot = make_slot(0, 0.0, 100.0)
        remainders = slot.split(20.0, 25.0)
        assert sum(r.length for r in remainders) + 25.0 == pytest.approx(slot.length)


class TestOrdering:
    def test_sort_key_orders_by_start_first(self):
        early = make_slot(5, 0.0, 10.0)
        late = make_slot(1, 1.0, 2.0)
        assert early.sort_key() < late.sort_key()

    def test_sort_key_breaks_ties_by_end_then_node(self):
        a = make_slot(2, 0.0, 10.0)
        b = make_slot(1, 0.0, 20.0)
        assert a.sort_key() < b.sort_key()
        c = make_slot(1, 0.0, 10.0)
        assert c.sort_key() < a.sort_key()

    def test_slots_are_value_objects(self):
        node = make_node(3)
        assert Slot(node, 0.0, 5.0) == Slot(node, 0.0, 5.0)
