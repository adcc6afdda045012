"""Unit tests for the find_window facade."""

import numpy as np
import pytest

from repro.core import (
    AMP,
    Criterion,
    MinCost,
    MinEnergy,
    MinFinish,
    MinRunTime,
    MinProcTime,
    find_window,
)
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import ResourceRequest


def request(n=2, budget=100.0):
    return ResourceRequest(node_count=n, reservation_time=20.0, budget=budget)


class TestMinimizingDispatch:
    def test_start_time(self, heterogeneous_pool):
        facade = find_window(request(), heterogeneous_pool, Criterion.START_TIME)
        direct = AMP().select(request(), heterogeneous_pool)
        assert facade.start == direct.start
        assert facade.nodes() == direct.nodes()

    def test_cost(self, heterogeneous_pool):
        facade = find_window(request(), heterogeneous_pool, Criterion.COST)
        direct = MinCost().select(request(), heterogeneous_pool)
        assert facade.total_cost == pytest.approx(direct.total_cost)

    def test_runtime_exact_flag(self, heterogeneous_pool):
        heuristic = find_window(request(), heterogeneous_pool, Criterion.RUNTIME)
        exact = find_window(
            request(), heterogeneous_pool, Criterion.RUNTIME, exact=True
        )
        reference = MinRunTime(exact=True).select(request(), heterogeneous_pool)
        assert exact.runtime == pytest.approx(reference.runtime)
        assert exact.runtime <= heuristic.runtime + 1e-9

    def test_finish(self, heterogeneous_pool):
        facade = find_window(request(), heterogeneous_pool, Criterion.FINISH_TIME)
        direct = MinFinish().select(request(), heterogeneous_pool)
        assert facade.finish == pytest.approx(direct.finish)

    def test_proc_time_with_rng(self, heterogeneous_pool):
        window = find_window(
            request(),
            heterogeneous_pool,
            Criterion.PROCESSOR_TIME,
            rng=np.random.default_rng(0),
        )
        assert window is not None
        optimizing = find_window(
            request(), heterogeneous_pool, Criterion.PROCESSOR_TIME, exact=True
        )
        assert optimizing.processor_time <= window.processor_time + 1e-9

    def test_proc_time_exact_is_the_branch_and_bound_optimum(self):
        """``exact=True`` must reach the exact solver, not the greedy
        single-swap heuristic: on this generated pool the greedy variant
        stops at 140.18 while the within-budget optimum is 133.93."""
        config = EnvironmentConfig(node_count=30, seed=8)
        pool = EnvironmentGenerator(config).generate().slot_pool()
        req = ResourceRequest(node_count=5, reservation_time=150.0, budget=1500.0)
        greedy = MinProcTime(simplified=False).select(req, pool)
        optimum = MinProcTime(simplified=False, exact=True).select(req, pool)
        assert optimum.processor_time < greedy.processor_time - 1.0
        facade = find_window(req, pool, Criterion.PROCESSOR_TIME, exact=True)
        assert facade.processor_time == optimum.processor_time
        assert facade.total_cost <= 1500.0 + 1e-6

    def test_energy(self, heterogeneous_pool):
        facade = find_window(request(), heterogeneous_pool, Criterion.ENERGY)
        direct = MinEnergy().select(request(), heterogeneous_pool)
        assert facade.total_energy == pytest.approx(direct.total_energy)

    def test_infeasible_returns_none(self, heterogeneous_pool):
        assert (
            find_window(request(budget=1.0), heterogeneous_pool, Criterion.COST)
            is None
        )


class TestMaximizingDispatch:
    def test_latest_start(self, heterogeneous_pool):
        earliest = find_window(request(), heterogeneous_pool, Criterion.START_TIME)
        latest = find_window(
            request(), heterogeneous_pool, Criterion.START_TIME, maximize=True
        )
        assert latest.start >= earliest.start

    def test_max_cost_stays_within_budget(self, heterogeneous_pool):
        req = request(budget=30.0)
        window = find_window(req, heterogeneous_pool, Criterion.COST, maximize=True)
        assert window.total_cost <= 30.0 + 1e-6
        cheapest = find_window(req, heterogeneous_pool, Criterion.COST)
        assert window.total_cost >= cheapest.total_cost - 1e-9

    def test_max_proc_time_picks_slow_nodes(self, heterogeneous_pool):
        req = request(budget=100.0)
        most = find_window(
            req, heterogeneous_pool, Criterion.PROCESSOR_TIME, maximize=True
        )
        least = find_window(
            req, heterogeneous_pool, Criterion.PROCESSOR_TIME, exact=True
        )
        assert most.processor_time >= least.processor_time

    def test_max_energy(self, heterogeneous_pool):
        req = request(budget=100.0)
        most = find_window(req, heterogeneous_pool, Criterion.ENERGY, maximize=True)
        least = find_window(req, heterogeneous_pool, Criterion.ENERGY)
        assert most.total_energy >= least.total_energy - 1e-9

    def test_max_runtime_not_supported(self, heterogeneous_pool):
        with pytest.raises(NotImplementedError):
            find_window(
                request(), heterogeneous_pool, Criterion.RUNTIME, maximize=True
            )
        with pytest.raises(NotImplementedError):
            find_window(
                request(), heterogeneous_pool, Criterion.FINISH_TIME, maximize=True
            )

    def test_maximized_windows_validate(self, heterogeneous_pool):
        req = request(budget=60.0)
        for criterion in (
            Criterion.START_TIME,
            Criterion.COST,
            Criterion.PROCESSOR_TIME,
            Criterion.ENERGY,
        ):
            window = find_window(req, heterogeneous_pool, criterion, maximize=True)
            if window is not None:
                window.validate(req)


class TestIdleTimeDispatch:
    def test_idle_time_minimization(self, heterogeneous_pool):
        window = find_window(request(), heterogeneous_pool, Criterion.IDLE_TIME)
        assert window is not None
        window.validate(request())

    def test_idle_time_maximize_not_supported(self, heterogeneous_pool):
        with pytest.raises(NotImplementedError):
            find_window(
                request(), heterogeneous_pool, Criterion.IDLE_TIME, maximize=True
            )
