"""Unit tests for the two-phase batch scheduler."""

import pytest

from repro.core import CSA, Criterion, MinCost
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import Job, JobBatch, ResourceRequest
from repro.scheduling import BatchScheduler
from tests.scheduling.oracle import optimal_combination


@pytest.fixture
def environment():
    return EnvironmentGenerator(EnvironmentConfig(node_count=40, seed=21)).generate()


def batch_of(*specs):
    batch = JobBatch()
    for job_id, n, priority in specs:
        batch.add(
            Job(
                job_id,
                ResourceRequest(node_count=n, reservation_time=60.0, budget=600.0),
                priority,
            )
        )
    return batch


class TestPhaseOne:
    def test_alternatives_found_per_job(self, environment):
        scheduler = BatchScheduler(search=CSA(max_alternatives=5))
        batch = batch_of(("a", 2, 5), ("b", 3, 1))
        alternatives = scheduler.find_alternatives(batch, environment.slot_pool())
        assert set(alternatives) == {"a", "b"}
        assert 1 <= len(alternatives["a"]) <= 5

    def test_single_window_search_yields_one_alternative(self, environment):
        scheduler = BatchScheduler(search=MinCost())
        batch = batch_of(("a", 2, 5))
        alternatives = scheduler.find_alternatives(batch, environment.slot_pool())
        assert len(alternatives["a"]) == 1

    def test_consume_slots_mode_produces_disjoint_alternatives(self, environment):
        # Each job searched on a working copy cut by its predecessors'
        # alternatives: no two jobs' alternatives share a slot.
        search = CSA(max_alternatives=3)
        batch = batch_of(("a", 2, 5), ("b", 2, 1))
        working = environment.slot_pool().copy()
        alternatives = {}
        for job in batch:
            alternatives[job.job_id] = search.find_alternatives(job, working)
            for window in alternatives[job.job_id]:
                working.commit_window(window)
        assert alternatives["a"] and alternatives["b"]
        for wa in alternatives["a"]:
            for wb in alternatives["b"]:
                assert not wa.conflicts_with(wb)


class TestRunCycle:
    def test_cycle_schedules_jobs_and_commits(self, environment):
        scheduler = BatchScheduler(search=CSA(max_alternatives=10))
        batch = batch_of(("a", 2, 5), ("b", 2, 1))
        report = scheduler.run_cycle(batch, environment)
        assert report.choice.scheduled_count == 2
        for job_id, window in report.scheduled.items():
            timeline = environment.timelines[window.slots[0].slot.node.node_id]
            assert not timeline.is_free(
                window.start, window.start + window.slots[0].required_time
            )

    def test_chosen_windows_conflict_free(self, environment):
        scheduler = BatchScheduler(search=CSA(max_alternatives=10))
        batch = batch_of(("a", 3, 5), ("b", 3, 3), ("c", 3, 1))
        report = scheduler.run_cycle(batch, environment)
        chosen = list(report.scheduled.values())
        for i, a in enumerate(chosen):
            for b in chosen[i + 1 :]:
                assert not a.conflicts_with(b)

    def test_cycle_report_summary_keys(self, environment):
        scheduler = BatchScheduler(search=CSA(max_alternatives=5))
        report = scheduler.run_cycle(batch_of(("a", 2, 1)), environment)
        summary = report.summary()
        assert set(summary) == {
            "scheduled_jobs",
            "unscheduled_jobs",
            "total_cost",
            "makespan",
            "alternatives_total",
        }
        assert summary["scheduled_jobs"] == 1.0

    def test_vo_budget_limits_spending(self, environment):
        scheduler = BatchScheduler(search=CSA(max_alternatives=10), vo_budget=600.0)
        batch = batch_of(("a", 2, 5), ("b", 2, 4), ("c", 2, 3))
        report = scheduler.run_cycle(batch, environment)
        assert report.choice.total_cost() <= 600.0 + 1e-6

    def test_exact_phase2_schedules_at_least_as_many(self, environment):
        batch = batch_of(("a", 2, 5), ("b", 2, 4), ("c", 2, 3))
        pool = environment.slot_pool()
        greedy = BatchScheduler(search=CSA(max_alternatives=4))
        alternatives = greedy.find_alternatives(batch, pool)
        greedy_choice = greedy.choose_combination(batch, alternatives)
        # The oracle reads windows: phase one's rows, materialized.
        windows = {
            job_id: [found.as_window() for found in options]
            for job_id, options in alternatives.items()
        }
        exact_choice = optimal_combination(
            batch.by_priority(), windows, greedy.criterion, greedy.vo_budget
        )
        assert exact_choice.scheduled_count >= greedy_choice.scheduled_count

    def test_successive_cycles_use_residual_capacity(self, environment):
        scheduler = BatchScheduler(search=CSA(max_alternatives=10))
        free_before = environment.slot_pool().total_free_time()
        scheduler.run_cycle(batch_of(("a", 2, 1)), environment)
        free_between = environment.slot_pool().total_free_time()
        scheduler.run_cycle(batch_of(("b", 2, 1)), environment)
        free_after = environment.slot_pool().total_free_time()
        assert free_between < free_before
        assert free_after < free_between

    def test_infeasible_job_left_unscheduled(self, environment):
        scheduler = BatchScheduler(search=CSA())
        batch = JobBatch()
        batch.add(
            Job(
                "impossible",
                ResourceRequest(node_count=200, reservation_time=60.0, budget=600.0),
            )
        )
        report = scheduler.run_cycle(batch, environment)
        assert report.unscheduled == ("impossible",)

    def test_phase2_criterion_drives_choice(self, environment):
        batch = batch_of(("a", 2, 1))
        pool = environment.slot_pool()
        by_cost = BatchScheduler(search=CSA(max_alternatives=20), criterion=Criterion.COST)
        by_finish = BatchScheduler(
            search=CSA(max_alternatives=20), criterion=Criterion.FINISH_TIME
        )
        alternatives = by_cost.find_alternatives(batch, pool)
        cost_choice = by_cost.choose_combination(batch, alternatives)
        finish_choice = by_finish.choose_combination(batch, alternatives)
        assert (
            cost_choice.assignments["a"].total_cost
            <= finish_choice.assignments["a"].total_cost + 1e-9
        )
        assert (
            finish_choice.assignments["a"].finish
            <= cost_choice.assignments["a"].finish + 1e-9
        )


class TestCycleFairness:
    def test_fairness_report_from_cycle(self, environment):
        from repro.core import CSA

        scheduler = BatchScheduler(search=CSA(max_alternatives=8))
        batch = JobBatch()
        for index in range(4):
            batch.add(
                Job(
                    f"fair-{index}",
                    ResourceRequest(node_count=2, reservation_time=60.0, budget=600.0),
                    priority=index,
                    owner="alice" if index % 2 == 0 else "bob",
                )
            )
        report = scheduler.run_cycle(batch, environment)
        fairness = report.fairness()
        assert set(fairness.owners) == {"alice", "bob"}
        assert fairness.owners["alice"].submitted == 2
        assert 0.0 < fairness.service_fairness <= 1.0
