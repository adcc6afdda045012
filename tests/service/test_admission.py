"""Admission control: structural rejects and the cost lower bound."""

from __future__ import annotations

from repro.model import Job, ResourceRequest
from repro.service import (
    AdmissionController,
    AdmissionDecision,
    CollectingSink,
    RejectionReason,
    cheapest_feasible_cost,
)
from repro.service import admission
from repro.service.events import EventEmitter, EventType

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

    def test_credit_refusal_computes_the_bound_once(self, uniform_pool, monkeypatch):
        calls = []

        def counted(request, pool):
            calls.append(request)
            return cheapest_feasible_cost(request, pool)

        monkeypatch.setattr(admission, "cheapest_feasible_cost", counted)
        sink = CollectingSink()
        decision = AdmissionController(EventEmitter([sink])).evaluate(
            make_job(),
            uniform_pool,
            queue_depth=0,
            queue_capacity=8,
            known_ids=frozenset(),
            price_multiplier=1.5,
            credit_balance=25.0,
        )
        assert decision.reason is RejectionReason.INSUFFICIENT_CREDIT
        assert len(calls) == 1
        (event,) = [e for e in sink.events if e.type is EventType.INSUFFICIENT_CREDIT]
        assert event.fields["required"] == 30.0  # bound 20 at 1.5x prices

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

    def test_matches_reference_with_py312_sum(self, py312_sum):
        self.test_matches_reference_across_seeds()

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
