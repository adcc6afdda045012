"""Unit tests for resource requests, jobs and batches."""

import pytest

from repro.model import InvalidRequestError, Job, JobBatch, ResourceRequest
from tests.conftest import make_node


class TestResourceRequestValidation:
    def test_minimal_valid_request(self):
        request = ResourceRequest(node_count=1, reservation_time=10.0)
        assert request.node_count == 1

    @pytest.mark.parametrize("count", [0, -1])
    def test_rejects_bad_node_count(self, count):
        with pytest.raises(InvalidRequestError):
            ResourceRequest(node_count=count, reservation_time=10.0)

    @pytest.mark.parametrize("time", [0.0, -5.0])
    def test_rejects_bad_reservation_time(self, time):
        with pytest.raises(InvalidRequestError):
            ResourceRequest(node_count=1, reservation_time=time)

    def test_rejects_negative_budget(self):
        with pytest.raises(InvalidRequestError):
            ResourceRequest(node_count=1, reservation_time=10.0, budget=-1.0)

    def test_rejects_negative_price_cap(self):
        with pytest.raises(InvalidRequestError):
            ResourceRequest(node_count=1, reservation_time=10.0, max_price_per_unit=-1.0)

    def test_rejects_nonpositive_reference_performance(self):
        with pytest.raises(InvalidRequestError):
            ResourceRequest(node_count=1, reservation_time=10.0, reference_performance=0.0)

    def test_rejects_negative_deadline(self):
        with pytest.raises(InvalidRequestError):
            ResourceRequest(node_count=1, reservation_time=10.0, deadline=-1.0)

    def test_rejects_negative_min_performance(self):
        with pytest.raises(InvalidRequestError):
            ResourceRequest(node_count=1, reservation_time=10.0, min_performance=-1.0)

    @pytest.mark.parametrize("field", ["min_clock_speed", "min_ram", "min_disk"])
    def test_rejects_negative_hardware_constraint(self, field):
        with pytest.raises(InvalidRequestError, match=field):
            ResourceRequest(node_count=1, reservation_time=10.0, **{field: -1})

    def test_nan_clock_speed_is_refused_not_matched(self):
        """A NaN constraint compares false against every node, so it
        would match all of them: it is refused instead."""
        with pytest.raises(InvalidRequestError, match="min_clock_speed"):
            ResourceRequest(
                node_count=1, reservation_time=1.0, min_clock_speed=float("nan")
            )

    @pytest.mark.parametrize(
        "field",
        [
            "reservation_time",
            "reference_performance",
            "budget",
            "max_price_per_unit",
            "min_performance",
            "min_clock_speed",
            "min_ram",
            "min_disk",
            "deadline",
        ],
    )
    def test_rejects_nan(self, field):
        """Every numeric check is spelled so that NaN fails it."""
        values = {"node_count": 1, "reservation_time": 10.0, field: float("nan")}
        with pytest.raises(InvalidRequestError, match=field):
            ResourceRequest(**values)


class TestEffectiveBudget:
    def test_explicit_budget_wins(self):
        request = ResourceRequest(
            node_count=5, reservation_time=150.0, budget=1500.0, max_price_per_unit=10.0
        )
        assert request.effective_budget == 1500.0

    def test_derived_from_price_cap(self):
        # The paper's formula S = F * t_s * n.
        request = ResourceRequest(
            node_count=5, reservation_time=150.0, max_price_per_unit=2.0
        )
        assert request.effective_budget == pytest.approx(1500.0)

    def test_unlimited_when_neither_given(self):
        request = ResourceRequest(node_count=2, reservation_time=10.0)
        assert request.effective_budget == float("inf")


class TestRequestMatching:
    def test_task_runtime_on(self):
        request = ResourceRequest(node_count=1, reservation_time=150.0)
        assert request.task_runtime_on(make_node(0, performance=5.0)) == pytest.approx(30.0)

    def test_node_matches_applies_price_cap(self):
        request = ResourceRequest(
            node_count=1, reservation_time=10.0, max_price_per_unit=2.0
        )
        assert request.node_matches(make_node(0, price=2.0))
        assert not request.node_matches(make_node(0, price=2.5))

    def test_node_matches_applies_hardware(self):
        request = ResourceRequest(
            node_count=1,
            reservation_time=10.0,
            min_performance=5.0,
            min_ram=8192,
            required_os="linux",
        )
        good = make_node(0, performance=6.0, ram=16384, os="linux")
        assert request.node_matches(good)
        assert not request.node_matches(make_node(1, performance=4.0, ram=16384))
        assert not request.node_matches(make_node(2, performance=6.0, ram=4096))
        assert not request.node_matches(
            make_node(3, performance=6.0, ram=16384, os="windows")
        )


class TestJob:
    def test_job_requires_id(self):
        with pytest.raises(InvalidRequestError):
            Job(job_id="", request=ResourceRequest(node_count=1, reservation_time=1.0))

    def test_default_priority_and_owner(self):
        job = Job("j", ResourceRequest(node_count=1, reservation_time=1.0))
        assert job.priority == 0
        assert job.owner == "anonymous"


class TestJobBatch:
    @staticmethod
    def _job(job_id: str, priority: int) -> Job:
        return Job(job_id, ResourceRequest(node_count=1, reservation_time=1.0), priority)

    def test_iterates_by_descending_priority(self):
        batch = JobBatch()
        batch.add(self._job("low", 1))
        batch.add(self._job("high", 9))
        batch.add(self._job("mid", 5))
        assert [job.job_id for job in batch] == ["high", "mid", "low"]

    def test_stable_order_for_equal_priorities(self):
        batch = JobBatch()
        batch.add(self._job("first", 3))
        batch.add(self._job("second", 3))
        assert [job.job_id for job in batch] == ["first", "second"]

    def test_rejects_duplicate_ids(self):
        batch = JobBatch()
        batch.add(self._job("same", 1))
        with pytest.raises(InvalidRequestError):
            batch.add(self._job("same", 2))

    def test_len(self):
        batch = JobBatch()
        assert len(batch) == 0
        batch.add(self._job("a", 0))
        assert len(batch) == 1
