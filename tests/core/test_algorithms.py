"""Unit tests for the concrete selection algorithms on known fixtures.

The ``heterogeneous_pool`` fixture (see conftest) has closed-form optima
for every criterion, so each algorithm's window can be checked exactly.
"""

import numpy as np
import pytest

from repro.core import (
    AMP,
    Criterion,
    Exhaustive,
    FirstFit,
    MinCost,
    MinEnergy,
    MinFinish,
    MinProcTime,
    MinRunTime,
    RigidBackfill,
)
from repro.model import Job, ResourceRequest, SlotPool
from tests.conftest import make_slot


def request(n=2, budget=100.0, **kwargs):
    return ResourceRequest(node_count=n, reservation_time=20.0, budget=budget, **kwargs)


class TestAMP:
    def test_earliest_start_on_heterogeneous_pool(self, heterogeneous_pool):
        window = AMP().select(request(2), heterogeneous_pool)
        assert window is not None
        assert window.start == pytest.approx(0.0)

    def test_first_policy_takes_scan_order(self, heterogeneous_pool):
        # Scan order at t=0: nodes 4 (end 30), 0, 1 (sort key end asc).
        window = AMP(policy="first").select(request(2), heterogeneous_pool)
        assert window.nodes() == [4, 0]

    def test_cheapest_policy_takes_cheapest(self, heterogeneous_pool):
        window = AMP(policy="cheapest").select(request(3), heterogeneous_pool)
        assert set(window.nodes()) == {0, 1, 4}

    def test_eviction_when_first_window_over_budget(self):
        # Three slots at t=0: two expensive, one cheap; n=2 with budget that
        # only fits {cheap, cheap2}; the expensive one must be evicted.
        pool = SlotPool.from_slots(
            [
                make_slot(0, 0.0, 50.0, price=10.0),  # cost 50
                make_slot(1, 0.0, 60.0, price=1.0),   # cost 5
                make_slot(2, 0.0, 70.0, price=1.0),   # cost 5
            ]
        )
        window = AMP(policy="first").select(request(2, budget=20.0), pool)
        assert window is not None
        assert window.start == pytest.approx(0.0)
        assert set(window.nodes()) == {1, 2}

    @pytest.mark.parametrize("policy", ["first", "cheapest"])
    def test_waiting_leg_leaves_once_it_would_miss_the_deadline(self, policy):
        # The slow node's task runs 100: started at 0 it meets the
        # deadline, started at 50 (when the second node frees up) it
        # would end at 150.  No window exists.
        pool = SlotPool.from_slots(
            [
                make_slot(0, 0.0, 1000.0, performance=1.0),
                make_slot(1, 50.0, 1000.0, performance=4.0),
            ]
        )
        req = ResourceRequest(node_count=2, reservation_time=100.0, deadline=110.0)
        assert AMP(policy=policy).select(req, pool) is None
        # With room for the slow leg the same pair does form a window.
        relaxed = ResourceRequest(node_count=2, reservation_time=100.0, deadline=150.0)
        window = AMP(policy=policy).select(relaxed, pool)
        assert window.start == 50.0
        window.validate(relaxed)

    def test_returns_none_when_budget_infeasible(self, heterogeneous_pool):
        assert AMP().select(request(2, budget=1.0), heterogeneous_pool) is None

    def test_returns_none_when_not_enough_nodes(self, heterogeneous_pool):
        assert AMP().select(request(6), heterogeneous_pool) is None

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            AMP(policy="bogus")

    def test_window_validates_against_request(self, heterogeneous_pool):
        req = request(3)
        window = AMP().select(req, heterogeneous_pool)
        window.validate(req)

    def test_cheapest_policy_start_never_later_than_first_policy(
        self, heterogeneous_pool
    ):
        req = request(2, budget=21.0)
        first = AMP(policy="first").select(req, heterogeneous_pool)
        cheapest = AMP(policy="cheapest").select(req, heterogeneous_pool)
        if first is not None:
            assert cheapest is not None
            assert cheapest.start <= first.start + 1e-9


class TestMinCost:
    def test_exact_minimum_on_fixture(self, heterogeneous_pool):
        window = MinCost().select(request(2), heterogeneous_pool)
        # Cheapest pair: any two of the cost-10 legs (nodes 0, 1, 4).
        assert window.total_cost == pytest.approx(20.0)

    def test_matches_exhaustive(self, heterogeneous_pool):
        req = request(3, budget=60.0)
        ours = MinCost().select(req, heterogeneous_pool)
        optimal = Exhaustive(Criterion.COST).select(req, heterogeneous_pool)
        assert ours.total_cost == pytest.approx(optimal.total_cost)

    def test_respects_budget(self, heterogeneous_pool):
        assert MinCost().select(request(2, budget=19.0), heterogeneous_pool) is None

    def test_window_validates(self, heterogeneous_pool):
        req = request(4)
        MinCost().select(req, heterogeneous_pool).validate(req)


class TestMinRunTime:
    def test_fastest_affordable_pair(self, heterogeneous_pool):
        window = MinRunTime().select(request(2, budget=100.0), heterogeneous_pool)
        # perf 10 (time 2) + perf 5 (time 4): runtime 4 from t=20.
        assert window.runtime == pytest.approx(4.0)

    def test_budget_limits_speed(self, heterogeneous_pool):
        window = MinRunTime().select(request(2, budget=27.0), heterogeneous_pool)
        assert window.total_cost <= 27.0 + 1e-6
        assert window.runtime >= 4.0

    def test_exact_variant_never_worse(self, heterogeneous_pool):
        for budget in (21.0, 27.0, 30.0, 35.0, 100.0):
            req = request(2, budget=budget)
            heuristic = MinRunTime(exact=False).select(req, heterogeneous_pool)
            exact = MinRunTime(exact=True).select(req, heterogeneous_pool)
            assert (heuristic is None) == (exact is None)
            if exact is not None:
                assert exact.runtime <= heuristic.runtime + 1e-9

    def test_exact_matches_exhaustive(self, heterogeneous_pool):
        req = request(2, budget=30.0)
        exact = MinRunTime(exact=True).select(req, heterogeneous_pool)
        optimal = Exhaustive(Criterion.RUNTIME).select(req, heterogeneous_pool)
        assert exact.runtime == pytest.approx(optimal.runtime)

    def test_names_distinguish_variants(self):
        assert MinRunTime().name == "MinRunTime"
        assert MinRunTime(exact=True).name == "MinRunTime-exact"


class TestMinFinish:
    def test_earliest_finish_on_fixture(self, heterogeneous_pool):
        window = MinFinish().select(request(2, budget=100.0), heterogeneous_pool)
        # At t=0 nodes {0, 1, 4} are alive: best runtime pair {0, 1} -> 10
        # wait: node 1 (time 5) and node 0 (time 10) -> runtime 10, finish 10.
        # At t=10 node 2 joins: {1, 2} runtime 5 -> finish 15.  At t=20 node 3:
        # {2, 3} runtime 4 -> finish 24.  Minimum finish is 10 at t=0.
        assert window.finish == pytest.approx(10.0)
        assert window.start == pytest.approx(0.0)

    def test_matches_exhaustive_finish(self, heterogeneous_pool):
        req = request(2, budget=100.0)
        ours = MinFinish(exact=True).select(req, heterogeneous_pool)
        optimal = Exhaustive(Criterion.FINISH_TIME).select(req, heterogeneous_pool)
        assert ours.finish == pytest.approx(optimal.finish)

    def test_budget_respected(self, heterogeneous_pool):
        window = MinFinish().select(request(3, budget=36.0), heterogeneous_pool)
        assert window.total_cost <= 36.0 + 1e-6


class TestMinProcTime:
    def test_optimizing_variant_matches_exhaustive(self, heterogeneous_pool):
        req = request(2, budget=100.0)
        ours = MinProcTime(simplified=False).select(req, heterogeneous_pool)
        optimal = Exhaustive(Criterion.PROCESSOR_TIME).select(req, heterogeneous_pool)
        assert ours.processor_time == pytest.approx(optimal.processor_time)

    def test_simplified_variant_feasible_and_valid(self, heterogeneous_pool):
        req = request(2, budget=40.0)
        window = MinProcTime(rng=np.random.default_rng(1)).select(
            req, heterogeneous_pool
        )
        assert window is not None
        window.validate(req)

    def test_simplified_not_better_than_optimizing(self, heterogeneous_pool):
        req = request(2, budget=100.0)
        simplified = MinProcTime(rng=np.random.default_rng(2)).select(
            req, heterogeneous_pool
        )
        optimizing = MinProcTime(simplified=False).select(req, heterogeneous_pool)
        assert optimizing.processor_time <= simplified.processor_time + 1e-9

    def test_names(self):
        assert MinProcTime().name == "MinProcTime"
        assert MinProcTime(simplified=False).name == "MinProcTime-opt"


class TestMinEnergy:
    def test_greedy_feasible_and_valid(self, heterogeneous_pool):
        req = request(2, budget=100.0)
        window = MinEnergy().select(req, heterogeneous_pool)
        assert window is not None
        window.validate(req)

    def test_exact_matches_exhaustive(self, heterogeneous_pool):
        req = request(2, budget=100.0)
        ours = MinEnergy(exact=True).select(req, heterogeneous_pool)
        optimal = Exhaustive(Criterion.ENERGY).select(req, heterogeneous_pool)
        assert ours.total_energy == pytest.approx(optimal.total_energy)

    def test_greedy_never_better_than_exact(self, heterogeneous_pool):
        for budget in (21.0, 30.0, 100.0):
            req = request(2, budget=budget)
            greedy = MinEnergy().select(req, heterogeneous_pool)
            exact = MinEnergy(exact=True).select(req, heterogeneous_pool)
            assert (greedy is None) == (exact is None)
            if exact is not None:
                assert exact.total_energy <= greedy.total_energy + 1e-9


class TestFirstFit:
    def test_ignores_budget(self, heterogeneous_pool):
        window = FirstFit().select(request(2, budget=1.0), heterogeneous_pool)
        assert window is not None  # budget-blind by design

    def test_first_matching_window(self, heterogeneous_pool):
        window = FirstFit().select(request(2), heterogeneous_pool)
        assert window.start == pytest.approx(0.0)

    def test_hardware_still_checked(self, heterogeneous_pool):
        req = request(2, min_performance=4.0)
        window = FirstFit().select(req, heterogeneous_pool)
        assert all(
            ws.slot.node.performance >= 4.0 for ws in window.slots
        )


class TestRigidBackfill:
    def test_rigid_duration_ignores_performance(self, heterogeneous_pool):
        window = RigidBackfill().select(request(2), heterogeneous_pool)
        assert window is not None
        assert all(
            ws.required_time == pytest.approx(20.0) for ws in window.slots
        )

    def test_needs_full_reservation_length(self):
        # Slots shorter than the rigid 20-unit reservation are unusable even
        # on fast nodes (where the AEP family would only need 5 units).
        pool = SlotPool.from_slots(
            [
                make_slot(0, 0.0, 10.0, performance=8.0),
                make_slot(1, 0.0, 10.0, performance=8.0),
            ]
        )
        assert RigidBackfill().select(request(2), pool) is None

    def test_cost_blind(self, heterogeneous_pool):
        window = RigidBackfill().select(request(2, budget=0.0), heterogeneous_pool)
        assert window is not None


class TestExhaustive:
    def test_guards_against_large_pools(self):
        slots = [make_slot(i, 0.0, 50.0) for i in range(65)]
        pool = SlotPool.from_slots(slots)
        with pytest.raises(ValueError):
            Exhaustive().select(request(2), pool)

    def test_respects_deadline(self, heterogeneous_pool):
        req = request(2, deadline=10.0)
        window = Exhaustive(Criterion.COST).select(req, heterogeneous_pool)
        assert window is None or window.finish <= 10.0 + 1e-9

    def test_none_when_infeasible(self, heterogeneous_pool):
        assert Exhaustive().select(request(2, budget=5.0), heterogeneous_pool) is None


class TestMinProcTimeExact:
    def test_exact_matches_exhaustive(self, heterogeneous_pool):
        req = request(2, budget=100.0)
        exact = MinProcTime(simplified=False, exact=True).select(
            req, heterogeneous_pool
        )
        optimal = Exhaustive(Criterion.PROCESSOR_TIME).select(req, heterogeneous_pool)
        assert exact.processor_time == pytest.approx(optimal.processor_time)

    def test_exact_never_worse_than_greedy(self, heterogeneous_pool):
        for budget in (21.0, 27.0, 40.0, 100.0):
            req = request(2, budget=budget)
            greedy = MinProcTime(simplified=False).select(req, heterogeneous_pool)
            exact = MinProcTime(simplified=False, exact=True).select(
                req, heterogeneous_pool
            )
            assert (greedy is None) == (exact is None)
            if exact is not None:
                assert exact.processor_time <= greedy.processor_time + 1e-9

    def test_name(self):
        assert MinProcTime(simplified=False, exact=True).name == "MinProcTime-exact"
