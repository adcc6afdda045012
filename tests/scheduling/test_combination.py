"""Unit tests for phase two: the greedy pass, its conflict index, and the
oracles they are held to (``tests/scheduling/oracle.py``)."""

import pytest

from repro.core import AMP, Criterion
from repro.model import (
    CpuNode,
    Job,
    JobBatch,
    ResourceRequest,
    SchedulingError,
    Slot,
    SlotPool,
    Window,
    WindowSlot,
)
from repro.model.errors import ConfigurationError
from repro.model.slot import TIME_EPSILON
from repro.model.window import budget_limit
from repro.scheduling import BatchScheduler, greedy_combination
from repro.scheduling.combination import ConflictIndex
from tests.conftest import make_slot
from tests.scheduling.oracle import (
    conflicts_with_any,
    optimal_combination,
    reference_greedy,
)


def window(node_ids, start=0.0, price=2.0, performance=4.0):
    request = ResourceRequest(node_count=len(node_ids), reservation_time=20.0)
    legs = tuple(
        WindowSlot.for_request(
            make_slot(node_id, start, start + 100.0, performance, price), request
        )
        for node_id in node_ids
    )
    return Window(start=start, slots=legs)


def job(job_id, priority=0, n=1):
    return Job(job_id, ResourceRequest(node_count=n, reservation_time=20.0), priority)


class TestGreedy:
    def test_assigns_best_alternative_per_job(self):
        jobs = [job("a"), job("b")]
        alternatives = {
            "a": [window([0], price=5.0), window([1], price=1.0)],
            "b": [window([2], price=3.0)],
        }
        choice = greedy_combination(jobs, alternatives, Criterion.COST)
        assert choice.assignments["a"].nodes() == [1]
        assert choice.assignments["b"].nodes() == [2]
        assert choice.unscheduled == ()

    def test_avoids_conflicts_in_priority_order(self):
        # Both jobs prefer node 0 at t=0; the high-priority job gets it.
        jobs = [job("low", priority=1), job("high", priority=9)]
        shared = window([0], price=1.0)
        alternatives = {
            "high": [shared],
            "low": [window([0], price=1.0), window([1], price=4.0)],
        }
        choice = greedy_combination(jobs, alternatives, Criterion.COST)
        assert choice.assignments["high"].nodes() == [0]
        assert choice.assignments["low"].nodes() == [1]

    def test_unschedulable_job_reported(self):
        jobs = [job("high", priority=9), job("low", priority=1)]
        only = window([0])
        alternatives = {"high": [only], "low": [window([0])]}
        choice = greedy_combination(jobs, alternatives, Criterion.COST)
        assert choice.unscheduled == ("low",)
        assert choice.scheduled_count == 1

    def test_job_without_alternatives_unscheduled(self):
        jobs = [job("a")]
        choice = greedy_combination(jobs, {"a": []}, Criterion.COST)
        assert choice.unscheduled == ("a",)

    def test_vo_budget_enforced(self):
        jobs = [job("a", priority=2), job("b", priority=1)]
        alternatives = {
            "a": [window([0], price=5.0)],   # cost 25
            "b": [window([1], price=5.0)],   # cost 25
        }
        choice = greedy_combination(jobs, alternatives, Criterion.COST, vo_budget=30.0)
        assert choice.scheduled_count == 1
        assert choice.assignments["a"].total_cost == pytest.approx(25.0)

    def test_total_value_accumulates_criterion(self):
        jobs = [job("a"), job("b")]
        alternatives = {"a": [window([0], price=1.0)], "b": [window([1], price=2.0)]}
        choice = greedy_combination(jobs, alternatives, Criterion.COST)
        assert choice.total_value == pytest.approx(5.0 + 10.0)

    def test_makespan_and_total_cost(self):
        jobs = [job("a"), job("b")]
        alternatives = {
            "a": [window([0], start=0.0)],
            "b": [window([1], start=50.0)],
        }
        choice = greedy_combination(jobs, alternatives, Criterion.COST)
        assert choice.makespan() == pytest.approx(55.0)
        assert choice.total_cost() == pytest.approx(20.0)

    def test_empty_batch(self):
        choice = greedy_combination([], {}, Criterion.COST)
        assert choice.scheduled_count == 0
        assert choice.makespan() == 0.0


class TestOptimal:
    def test_matches_greedy_on_conflict_free_input(self):
        jobs = [job("a"), job("b")]
        alternatives = {
            "a": [window([0], price=5.0), window([1], price=1.0)],
            "b": [window([2], price=3.0)],
        }
        greedy = greedy_combination(jobs, alternatives, Criterion.COST)
        optimal = optimal_combination(jobs, alternatives, Criterion.COST)
        assert optimal.total_value == pytest.approx(greedy.total_value)

    def test_beats_greedy_when_priority_order_hurts(self):
        # High-priority job can use node 0 or node 1; low-priority job can
        # only use node 0.  Greedy gives node 0 (cheaper for "high") to the
        # high-priority job, starving "low"; optimal schedules both.
        jobs = [job("high", priority=9), job("low", priority=1)]
        alternatives = {
            "high": [window([0], price=1.0), window([1], price=4.0)],
            "low": [window([0], price=1.0)],
        }
        greedy = greedy_combination(jobs, alternatives, Criterion.COST)
        optimal = optimal_combination(jobs, alternatives, Criterion.COST)
        assert greedy.scheduled_count == 1
        assert optimal.scheduled_count == 2

    def test_prefers_more_scheduled_jobs_over_cheaper_value(self):
        jobs = [job("a"), job("b")]
        alternatives = {
            "a": [window([0], price=1.0), window([1], price=50.0)],
            "b": [window([0], price=1.0)],
        }
        optimal = optimal_combination(jobs, alternatives, Criterion.COST)
        assert optimal.scheduled_count == 2

    def test_vo_budget_enforced(self):
        jobs = [job("a"), job("b")]
        alternatives = {
            "a": [window([0], price=5.0)],
            "b": [window([1], price=5.0)],
        }
        optimal = optimal_combination(
            jobs, alternatives, Criterion.COST, vo_budget=30.0
        )
        assert optimal.scheduled_count == 1

    def test_node_budget_guard(self):
        jobs = [job(f"j{i}") for i in range(8)]
        alternatives = {
            f"j{i}": [window([i], price=1.0), window([i + 20], price=2.0)]
            for i in range(8)
        }
        with pytest.raises(SchedulingError):
            optimal_combination(
                jobs, alternatives, Criterion.COST, max_nodes_expanded=10
            )

    def test_empty_batch(self):
        optimal = optimal_combination([], {}, Criterion.COST)
        assert optimal.scheduled_count == 0


class TestConflictIndexEquivalence:
    """The span index must accept/reject exactly like the pairwise
    ``Window.conflicts_with`` loop — including at TIME_EPSILON
    boundaries and for windows reusing a node."""

    def test_randomized_push_equivalence(self):
        import random

        rng = random.Random(2013)
        for _trial in range(20):
            index = ConflictIndex()
            chosen: list[Window] = []
            for _step in range(60):
                node_ids = rng.sample(range(6), k=rng.randint(1, 3))
                candidate = window(
                    node_ids,
                    start=rng.uniform(0.0, 40.0),
                    performance=rng.choice([2.0, 4.0, 8.0]),
                )
                assert index.conflicts(candidate) == conflicts_with_any(
                    candidate, chosen
                ), (len(chosen), candidate.start)
                if rng.random() < 0.3:
                    index.push(candidate)
                    chosen.append(candidate)

    def test_epsilon_boundary_cases(self):
        # performance=4.0, reservation 20.0 -> required_time 5.0, so the
        # chosen window occupies node 0 over [10, 15).
        base = window([0], start=10.0, performance=4.0)
        deltas = (
            -2.0 * TIME_EPSILON,
            -TIME_EPSILON,
            -TIME_EPSILON / 2.0,
            0.0,
            TIME_EPSILON / 2.0,
            TIME_EPSILON,
        )
        for boundary in (15.0, 5.0):  # trailing and leading edges
            for delta in deltas:
                candidate = window([0], start=boundary + delta, performance=4.0)
                index = ConflictIndex()
                index.push(base)
                assert index.conflicts(candidate) == conflicts_with_any(
                    candidate, [base]
                ), (boundary, delta)

    def test_node_reused_within_window_matches_reference(self):
        request = ResourceRequest(node_count=2, reservation_time=20.0)
        # Candidate side: conflicts_with keeps the *last* leg per node
        # (dict comprehension), so a candidate whose legs on node 0 have
        # required_time 5.0 then 1.0 effectively spans [8, 9) — clear of
        # a chosen [10, 15) even though its first leg would reach 13.
        chosen = window([0], start=10.0, performance=4.0)  # [10, 15)
        candidate_legs = tuple(
            WindowSlot.for_request(make_slot(0, 8.0, 108.0, performance), request)
            for performance in (4.0, 20.0)
        )
        candidate = Window(start=8.0, slots=candidate_legs)
        index = ConflictIndex()
        index.push(chosen)
        verdict = index.conflicts(candidate)
        assert verdict == conflicts_with_any(candidate, [chosen])
        assert verdict is False
        # Chosen side: conflicts_with iterates *every* leg of the other
        # window, so a chosen window whose first leg covers [10, 15)
        # still blocks a candidate at 13 even though its last leg ends
        # at 12.5 — and the index, which stores all pushed legs, agrees.
        multi_chosen = Window(
            start=10.0,
            slots=tuple(
                WindowSlot.for_request(
                    make_slot(0, 10.0, 110.0, performance), request
                )
                for performance in (4.0, 8.0)
            ),
        )
        late = window([0], start=13.0, performance=4.0)
        blocked = ConflictIndex()
        blocked.push(multi_chosen)
        verdict = blocked.conflicts(late)
        assert verdict == conflicts_with_any(late, [multi_chosen])
        assert verdict is True


def leg(node_id, required_time, cost):
    """A leg with explicit runtime and cost (hand-built, any sign)."""
    return WindowSlot(
        slot=make_slot(node_id, 0.0, 1000.0), required_time=required_time, cost=cost
    )


class TestResumeOnSharedLists:
    """Classmates hold copies of one list of the same ``Window`` objects;
    the greedy pass ranks it once and resumes where the last classmate
    stopped, deciding exactly what :func:`reference_greedy` decides."""

    @staticmethod
    def assert_same_choice(choice, expected):
        assert choice.assignments.keys() == expected.assignments.keys()
        for job_id, chosen in expected.assignments.items():
            assert choice.assignments[job_id] is chosen
        assert choice.unscheduled == expected.unscheduled
        assert choice.total_value.hex() == expected.total_value.hex()

    def test_sub_epsilon_window_is_assigned_to_every_classmate(self):
        # Legs at most TIME_EPSILON long do not conflict with themselves,
        # so the reference assigns the cheapest window to both
        # classmates: the resume point is the selected window, not the
        # one after it.
        tiny = Window(start=5.0, slots=(leg(0, TIME_EPSILON / 2.0, 1.0),))
        dear = Window(start=5.0, slots=(leg(1, 10.0, 9.0),))
        shared = [dear, tiny]
        jobs = [job("a", priority=2), job("b", priority=1)]
        alternatives = {"a": list(shared), "b": list(shared)}
        choice = greedy_combination(jobs, alternatives, Criterion.COST)
        self.assert_same_choice(
            choice, reference_greedy(jobs, alternatives, Criterion.COST)
        )
        assert choice.assignments["a"] is tiny
        assert choice.assignments["b"] is tiny

    def test_classmates_take_successive_windows_of_one_list(self):
        shared = [window([node], price=float(node + 1)) for node in range(4)]
        jobs = [job(f"j{i}", priority=i % 3) for i in range(6)]
        alternatives = {j.job_id: list(shared) for j in jobs}
        choice = greedy_combination(jobs, alternatives, Criterion.COST)
        self.assert_same_choice(
            choice, reference_greedy(jobs, alternatives, Criterion.COST)
        )
        assert choice.scheduled_count == 4
        assert len(choice.unscheduled) == 2

    def test_equal_but_distinct_windows_are_not_shared(self):
        # Lists are matched by identity: a job is given its own objects
        # even when another job's list compares equal.
        jobs = [job("a", priority=2), job("b", priority=1)]
        alternatives = {
            "a": [window([0]), window([1])],
            "b": [window([0]), window([1])],
        }
        assert alternatives["a"] == alternatives["b"]
        choice = greedy_combination(jobs, alternatives, Criterion.COST)
        assert choice.assignments["a"] is alternatives["a"][0]
        assert choice.assignments["b"] is alternatives["b"][1]

    def test_negative_cost_clears_the_resume_points(self):
        # "early" finds the shared list over budget; a hand-built window
        # with a negative cost then raises the remaining budget, so a
        # later classmate can afford what "early" could not.
        pricey = Window(start=0.0, slots=(leg(0, 5.0, 30.0),))
        rebate = Window(start=0.0, slots=(leg(1, 5.0, -20.0),))
        jobs = [job("early", priority=9), job("refund", priority=5), job("late")]
        alternatives = {"early": [pricey], "refund": [rebate], "late": [pricey]}
        choice = greedy_combination(jobs, alternatives, Criterion.COST, vo_budget=20.0)
        self.assert_same_choice(
            choice,
            reference_greedy(jobs, alternatives, Criterion.COST, vo_budget=20.0),
        )
        assert choice.unscheduled == ("early",)
        assert choice.assignments["late"] is pricey


class TestVoBudgetVerdict:
    """The VO budget is one more budget verdict: a total within
    ``budget_limit(remaining)`` fits, as it does in every search and in
    :meth:`Window.validate`."""

    def test_phase_two_takes_what_validate_accepts(self):
        # Runtime 10 at a price just over 10: the window costs
        # 100.0000001, within budget_limit(100) but over 100 + 1e-9.
        node = CpuNode(node_id=0, performance=1.0, price_per_unit=10.0 + 1e-8)
        pool = SlotPool.from_slots([Slot(node, 0.0, 50.0)])
        request = ResourceRequest(node_count=1, reservation_time=10.0, budget=100.0)
        found = AMP().select(request, pool)
        assert found is not None and found.total_cost > 100.0 + 1e-9
        found.validate(request)
        batch = JobBatch()
        batch.add(Job("edge", request))
        report = BatchScheduler(search=AMP(), vo_budget=100.0).plan(batch, pool)
        assert report.choice.unscheduled == ()
        assert report.choice.assignments["edge"] == found

    def test_a_limit_that_rises_by_an_ulp_clears_the_resume_points(self):
        # ``budget_limit`` is monotone over the reals only: as a negative
        # remaining budget falls by one ulp across a rounding step of
        # ``1 + |b|``, the limit rises.  "early" passes over ``edge``,
        # "step" makes that fall, and "late" may then take ``edge``.
        high = -1.1102230246251565e-16
        low = -1.1102230246251568e-16
        assert budget_limit(low) > budget_limit(high)
        edge = Window(start=0.0, slots=(leg(0, 5.0, budget_limit(low)),))
        step = Window(start=0.0, slots=(leg(1, 5.0, high - low),))
        assert high - (high - low) == low
        jobs = [job("early", priority=9), job("step", priority=5), job("late")]
        alternatives = {"early": [edge], "step": [step], "late": [edge]}
        # "late" holds a copy of the list "early" ranked and ran past.
        choice = greedy_combination(jobs, alternatives, Criterion.COST, vo_budget=high)
        expected = reference_greedy(jobs, alternatives, Criterion.COST, vo_budget=high)
        TestResumeOnSharedLists.assert_same_choice(choice, expected)
        assert choice.unscheduled == ("early",)
        assert choice.assignments["late"] is edge

    def test_a_nan_budget_is_refused(self):
        """``budget_limit(NaN)`` is NaN and no cost exceeds it: a NaN VO
        budget would let every window through, so it is refused."""
        nan = float("nan")
        with pytest.raises(ConfigurationError, match="vo_budget"):
            greedy_combination([job("a")], {"a": [window([0])]}, Criterion.COST, nan)
        with pytest.raises(ConfigurationError, match="vo_budget"):
            BatchScheduler(search=AMP(), vo_budget=nan)

    def test_an_infinite_budget_stays_infinite(self):
        assert budget_limit(float("inf")) == float("inf")
        assert budget_limit(float("-inf")) == float("-inf")
        jobs = [job("a")]
        choice = greedy_combination(
            jobs, {"a": [window([0])]}, Criterion.COST, vo_budget=float("-inf")
        )
        assert choice.unscheduled == ("a",)
