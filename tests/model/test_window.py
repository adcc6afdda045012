"""Unit tests for co-allocation windows and their invariants."""

import pytest

from repro.model import (
    ResourceRequest,
    Window,
    WindowSlot,
    WindowValidationError,
)
from tests.conftest import make_slot


def leg(node_id, start, end, performance=4.0, price=2.0, reservation=20.0):
    slot = make_slot(node_id, start, end, performance, price)
    request = ResourceRequest(node_count=1, reservation_time=reservation)
    return WindowSlot.for_request(slot, request)


@pytest.fixture
def simple_window():
    # Two legs from t=0: 5 units @ cost 10 (perf 4), 10 units @ cost 10 (perf 2).
    legs = (
        leg(0, 0.0, 50.0, performance=4.0, price=2.0),
        leg(1, 0.0, 50.0, performance=2.0, price=1.0),
    )
    return Window(start=0.0, slots=legs)


class TestWindowSlot:
    def test_for_request_computes_duration_and_cost(self):
        ws = leg(0, 0.0, 50.0, performance=4.0, price=2.0, reservation=20.0)
        assert ws.required_time == pytest.approx(5.0)
        assert ws.cost == pytest.approx(10.0)

    def test_fits_from(self):
        ws = leg(0, 0.0, 50.0, performance=4.0)  # needs 5 units
        assert ws.fits_from(0.0)
        assert ws.fits_from(45.0)
        assert not ws.fits_from(45.1)

    def test_fits_from_by_a_deadline(self):
        ws = leg(0, 0.0, 50.0, performance=4.0)  # needs 5 units
        assert ws.fits_from(30.0, deadline=35.0)
        assert not ws.fits_from(30.1, deadline=35.0)

    def test_energy_positive(self):
        assert leg(0, 0.0, 50.0).energy() > 0


class TestAggregates:
    def test_size(self, simple_window):
        assert simple_window.size == 2

    def test_runtime_is_longest_leg(self, simple_window):
        assert simple_window.runtime == pytest.approx(10.0)

    def test_finish(self, simple_window):
        assert simple_window.finish == pytest.approx(10.0)

    def test_finish_offsets_start(self):
        legs = (leg(0, 5.0, 50.0), leg(1, 5.0, 50.0))
        window = Window(start=5.0, slots=legs)
        assert window.finish == pytest.approx(10.0)

    def test_processor_time_is_sum(self, simple_window):
        assert simple_window.processor_time == pytest.approx(15.0)

    def test_total_cost(self, simple_window):
        assert simple_window.total_cost == pytest.approx(20.0)

    def test_total_energy_is_sum_of_leg_energies(self, simple_window):
        assert simple_window.total_energy == pytest.approx(
            sum(ws.energy() for ws in simple_window.slots)
        )

    def test_nodes(self, simple_window):
        assert simple_window.nodes() == [0, 1]

    def test_empty_window_rejected(self):
        with pytest.raises(WindowValidationError):
            Window(start=0.0, slots=())


class TestValidation:
    def test_valid_window_passes(self, simple_window):
        simple_window.validate()
        assert simple_window.is_valid()

    def test_detects_duplicate_nodes(self):
        legs = (leg(0, 0.0, 50.0), leg(0, 0.0, 50.0))
        with pytest.raises(WindowValidationError, match="reuses nodes"):
            Window(start=0.0, slots=legs).validate()

    def test_detects_window_start_before_slot_start(self):
        window = Window(start=0.0, slots=(leg(0, 10.0, 50.0),))
        with pytest.raises(WindowValidationError):
            window.validate()

    def test_detects_leg_overflowing_slot(self):
        # Task needs 5 units but only 3 remain from the window start.
        window = Window(start=47.0, slots=(leg(0, 0.0, 50.0),))
        with pytest.raises(WindowValidationError):
            window.validate()

    def test_leg_is_checked_by_the_fit_predicate(self):
        # ``end - start`` passes ``>= runtime - eps`` (the old end test)
        # while the last start ``end - runtime`` is below ``start - eps``:
        # the window is refused, as the search and every cut refuse it.
        start, end, runtime = 0.8800301687734118, 1522731.6770924227, 1522730.797062255
        slot = make_slot(0, start, end, performance=1.0)
        request = ResourceRequest(node_count=1, reservation_time=runtime)
        window = Window(start=start, slots=(WindowSlot.for_request(slot, request),))
        with pytest.raises(WindowValidationError, match="cannot host"):
            window.validate()

    def test_request_size_mismatch(self, simple_window):
        request = ResourceRequest(node_count=3, reservation_time=20.0)
        with pytest.raises(WindowValidationError, match="slots"):
            simple_window.validate(request)

    def test_request_budget_violation(self, simple_window):
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=19.0)
        with pytest.raises(WindowValidationError, match="budget"):
            simple_window.validate(request)

    def test_request_budget_exact_is_ok(self, simple_window):
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=20.0)
        simple_window.validate(request)

    def test_request_duration_mismatch(self, simple_window):
        request = ResourceRequest(node_count=2, reservation_time=40.0, budget=100.0)
        with pytest.raises(WindowValidationError, match="required_time"):
            simple_window.validate(request)

    def test_request_hardware_mismatch(self, simple_window):
        request = ResourceRequest(
            node_count=2, reservation_time=20.0, budget=100.0, min_performance=3.0
        )
        with pytest.raises(WindowValidationError, match="hardware"):
            simple_window.validate(request)

    def test_deadline_violation(self, simple_window):
        request = ResourceRequest(
            node_count=2, reservation_time=20.0, budget=100.0, deadline=9.0
        )
        with pytest.raises(WindowValidationError, match="deadline"):
            simple_window.validate(request)

    def test_deadline_met(self, simple_window):
        request = ResourceRequest(
            node_count=2, reservation_time=20.0, budget=100.0, deadline=10.0
        )
        simple_window.validate(request)

    def test_is_valid_false_on_violation(self, simple_window):
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=1.0)
        assert not simple_window.is_valid(request)


class TestConflicts:
    def test_same_node_overlapping_time_conflicts(self):
        a = Window(start=0.0, slots=(leg(0, 0.0, 50.0),))  # occupies [0, 5)
        b = Window(start=3.0, slots=(leg(0, 0.0, 50.0),))  # occupies [3, 8)
        assert a.conflicts_with(b)
        assert b.conflicts_with(a)

    def test_same_node_disjoint_time_ok(self):
        a = Window(start=0.0, slots=(leg(0, 0.0, 50.0),))  # [0, 5)
        b = Window(start=5.0, slots=(leg(0, 0.0, 50.0),))  # [5, 10)
        assert not a.conflicts_with(b)

    def test_different_nodes_never_conflict(self):
        a = Window(start=0.0, slots=(leg(0, 0.0, 50.0),))
        b = Window(start=0.0, slots=(leg(1, 0.0, 50.0),))
        assert not a.conflicts_with(b)

    def test_partial_overlap_on_one_common_node(self):
        a = Window(start=0.0, slots=(leg(0, 0.0, 50.0), leg(1, 0.0, 50.0)))
        b = Window(start=2.0, slots=(leg(1, 0.0, 50.0), leg(2, 0.0, 50.0)))
        assert a.conflicts_with(b)
