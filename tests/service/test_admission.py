"""Admission control: structural rejects, the cost lower bound, and the
warm-start outlook gate."""

from __future__ import annotations

import pytest

from repro.model import Job, ResourceRequest
from repro.service import (
    AdmissionController,
    AdmissionDecision,
    RejectionReason,
    cheapest_feasible_cost,
)
from repro.service.admission import AdmissionOutlook

from tests.service.admission_oracle import cheapest_feasible_cost_reference


def make_job(job_id: str = "adm", nodes: int = 2, budget: float = 1000.0) -> Job:
    return Job(
        job_id,
        ResourceRequest(node_count=nodes, reservation_time=20.0, budget=budget),
    )


class TestCheapestFeasibleCost:
    def test_uniform_pool_lower_bound(self, uniform_pool):
        # perf 4, price 2: task(20) runs 5 and costs 10 per node
        assert cheapest_feasible_cost(make_job().request, uniform_pool) == 20.0

    def test_heterogeneous_pool_picks_cheapest_nodes(self, heterogeneous_pool):
        # cheapest task costs are 10 (nodes 0, 1 and 4)
        bound = cheapest_feasible_cost(make_job(nodes=3).request, heterogeneous_pool)
        assert bound == 30.0

    def test_too_few_nodes_returns_none(self, uniform_pool):
        assert cheapest_feasible_cost(make_job(nodes=5).request, uniform_pool) is None

    def test_short_slots_do_not_count(self, uniform_pool):
        # task needs 5 units on these nodes; a 200-unit reservation does not fit
        request = ResourceRequest(node_count=4, reservation_time=800.0, budget=1e6)
        assert cheapest_feasible_cost(request, uniform_pool) is None


class TestAdmissionController:
    def evaluate(self, pool, job, depth=0, capacity=8, known=frozenset()):
        return AdmissionController().evaluate(
            job, pool, queue_depth=depth, queue_capacity=capacity, known_ids=known
        )

    def test_admits_feasible_job(self, uniform_pool):
        decision = self.evaluate(uniform_pool, make_job())
        assert decision
        assert decision.reason is None

    def test_rejects_full_queue(self, uniform_pool):
        decision = self.evaluate(uniform_pool, make_job(), depth=8, capacity=8)
        assert not decision
        assert decision.reason is RejectionReason.QUEUE_FULL

    def test_rejects_duplicate_id(self, uniform_pool):
        decision = self.evaluate(uniform_pool, make_job("dup"), known={"dup"})
        assert decision.reason is RejectionReason.DUPLICATE_ID

    def test_rejects_too_many_nodes(self, uniform_pool):
        decision = self.evaluate(uniform_pool, make_job(nodes=5))
        assert decision.reason is RejectionReason.TOO_FEW_NODES

    def test_rejects_hopeless_budget(self, uniform_pool):
        decision = self.evaluate(uniform_pool, make_job(budget=19.0))
        assert decision.reason is RejectionReason.BUDGET_INFEASIBLE
        assert "budget" in decision.detail

    def test_admits_budget_exactly_at_lower_bound(self, uniform_pool):
        assert self.evaluate(uniform_pool, make_job(budget=20.0))

    def test_lenient_controller_skips_budget_check(self, uniform_pool):
        controller = AdmissionController(strict_budget=False)
        decision = controller.evaluate(
            make_job(budget=1.0),
            uniform_pool,
            queue_depth=0,
            queue_capacity=8,
            known_ids=frozenset(),
        )
        assert decision.admitted

    def test_decision_truthiness(self):
        assert AdmissionDecision.accept()
        assert not AdmissionDecision.reject(RejectionReason.QUEUE_FULL)


class TestVectorizedLowerBound:
    """The memoized columnar bound is float-identical to the object-loop
    reference on every request shape."""

    def test_matches_reference_across_seeds(self):
        from repro.environment import EnvironmentConfig, EnvironmentGenerator
        from repro.simulation.jobgen import JobGenerator

        for seed in range(12):
            pool = EnvironmentGenerator(
                EnvironmentConfig(node_count=20, seed=seed)
            ).generate().slot_pool()
            for job in JobGenerator(seed=seed + 100).generate_batch(40):
                fast = cheapest_feasible_cost(job.request, pool)
                slow = cheapest_feasible_cost_reference(job.request, pool)
                assert fast == slow, (seed, job.job_id)

    def test_cache_is_reused_and_bounded(self, uniform_pool):
        from repro.service.admission import ADMISSION_CACHE_LIMIT

        request = make_job().request
        cheapest_feasible_cost(request, uniform_pool)
        cache = uniform_pool.as_arrays()._admission_cache
        assert len(cache) == 1
        cheapest_feasible_cost(request, uniform_pool)
        assert len(cache) == 1  # hit, not a second entry
        # node_count/budget changes share the per-shape entry.
        other = ResourceRequest(node_count=3, reservation_time=20.0, budget=5.0)
        cheapest_feasible_cost(other, uniform_pool)
        assert len(cache) == 1
        for i in range(ADMISSION_CACHE_LIMIT + 10):
            varied = ResourceRequest(
                node_count=2, reservation_time=20.0 + i, budget=1e6
            )
            cheapest_feasible_cost(varied, uniform_pool)
        assert len(cache) <= ADMISSION_CACHE_LIMIT


class TestAdmissionOutlook:
    def test_decayed_fit_probability(self):
        outlook = AdmissionOutlook(decay=0.5)
        outlook.observe_cycle("finish_time", batched=4, scheduled=4, mean_wait=1.0)
        assert outlook.fit_probability("finish_time") == 1.0
        outlook.observe_cycle("finish_time", batched=4, scheduled=0, mean_wait=3.0)
        # weights 0.5 and 1.0 over fits 1.0 and 0.0
        assert outlook.fit_probability("finish_time") == pytest.approx(1 / 3)
        assert outlook.cycles_observed("finish_time") == 2

    def test_predicted_wait_tracks_recent_cycles(self):
        outlook = AdmissionOutlook(decay=0.85)
        for wait in (2.0, 4.0, 6.0):
            outlook.observe_cycle("min_cost", 8, 8, mean_wait=wait)
        predicted = outlook.predicted_wait("min_cost")
        # decay-weighted toward the most recent cycle
        assert 4.0 < predicted < 6.0

    def test_empty_batches_are_skipped(self):
        outlook = AdmissionOutlook()
        outlook.observe_cycle("min_cost", batched=0, scheduled=0, mean_wait=0.0)
        assert outlook.cycles_observed("min_cost") == 0
        assert outlook.fit_probability("min_cost") is None
        assert outlook.predicted_wait("min_cost") is None

    def test_criteria_are_independent(self):
        outlook = AdmissionOutlook()
        outlook.observe_cycle("min_cost", 4, 0, 1.0)
        outlook.observe_cycle("finish_time", 4, 4, 1.0)
        assert outlook.fit_probability("min_cost") == 0.0
        assert outlook.fit_probability("finish_time") == 1.0
        view = outlook.snapshot()
        assert set(view) == {"min_cost", "finish_time"}
        assert view["finish_time"]["fit_probability"] == 1.0

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            AdmissionOutlook(decay=0.0)
        with pytest.raises(ValueError):
            AdmissionOutlook(decay=1.0)


class TestPredictedMissGate:
    def evaluate(self, controller, pool, job):
        return controller.evaluate(
            job, pool, queue_depth=0, queue_capacity=8, known_ids=frozenset()
        )

    def gated_controller(self, outlook, min_fit=0.5, min_fit_cycles=3):
        return AdmissionController(
            outlook=outlook,
            criterion="finish_time",
            min_fit=min_fit,
            min_fit_cycles=min_fit_cycles,
        )

    def test_fires_after_enough_bad_cycles(self, uniform_pool):
        outlook = AdmissionOutlook()
        controller = self.gated_controller(outlook)
        for _ in range(5):
            outlook.observe_cycle("finish_time", 6, 0, mean_wait=10.0)
        decision = self.evaluate(controller, uniform_pool, make_job())
        assert decision.reason is RejectionReason.PREDICTED_MISS
        assert "0%" in decision.detail

    def test_holds_fire_until_min_cycles(self, uniform_pool):
        outlook = AdmissionOutlook()
        controller = self.gated_controller(outlook, min_fit_cycles=3)
        outlook.observe_cycle("finish_time", 6, 0, mean_wait=10.0)
        outlook.observe_cycle("finish_time", 6, 0, mean_wait=10.0)
        assert self.evaluate(controller, uniform_pool, make_job()).admitted

    def test_recovers_when_fit_improves(self, uniform_pool):
        outlook = AdmissionOutlook(decay=0.5)
        controller = self.gated_controller(outlook)
        for _ in range(4):
            outlook.observe_cycle("finish_time", 6, 0, mean_wait=10.0)
        assert not self.evaluate(controller, uniform_pool, make_job())
        for _ in range(4):
            outlook.observe_cycle("finish_time", 6, 6, mean_wait=1.0)
        assert self.evaluate(controller, uniform_pool, make_job()).admitted

    def test_gate_off_by_default(self, uniform_pool):
        """min_fit=0.0 (the default) never rejects, no matter how bleak
        the outlook — decision streams are unchanged unless opted in."""
        outlook = AdmissionOutlook()
        for _ in range(10):
            outlook.observe_cycle("finish_time", 6, 0, mean_wait=50.0)
        default = AdmissionController(outlook=outlook, criterion="finish_time")
        assert self.evaluate(default, uniform_pool, make_job()).admitted
