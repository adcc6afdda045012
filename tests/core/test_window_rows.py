"""Phase two reads rows: a CSA sweep's alternatives stay rows of their
scan plan until phase two chooses one, and a plan lists only what its
sweep reads.

* Every value a row reports — the criterion values, the cost, the legs
  — is the float its materialized window computes, and phase two over
  rows chooses what ``reference_greedy`` chooses over the windows.
* The plan's cost order comes from per-node dense ranks; it equals the
  stable ``lexsort`` of the candidates' (cost, runtime) pairs, ties
  included.
* The plan's lazily built lists equal lists built from the slot objects,
  and a sweep builds none it does not read.
* A committed window references no plan or snapshot: once a cycle's
  windows are committed, its snapshot dies.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import CSA, Criterion, vectorized
from repro.model import Job, JobBatch, ResourceRequest, Slot, SlotPool, Window
from repro.model.slot import fits_from, last_start
from repro.model.window import left_sum
from repro.scheduling import BatchScheduler, greedy_combination

from tests.conftest import make_node
from tests.core.test_csa_sweep import fragmented_pool
from tests.scheduling.oracle import reference_greedy
from tests.strategies import ADVERSARIAL, adversarial_cases

POLICIES = ("first", "cheapest")


def bits(value: float) -> str:
    """A float's exact bits (``==`` would equate 0.0 and -0.0)."""
    return float(value).hex()


def rows_of(request, pool, policy, cap=None):
    found = vectorized.vectorized_alternatives(request, pool, cap, policy)
    assert found is not vectorized.UNSUPPORTED
    return found


def assert_rows_read_as_their_windows(rows) -> None:
    for row in rows:
        window = row.as_window()
        assert row.as_window() is window  # materialized once
        assert row.start == window.start
        assert list(row.legs()) == window.legs()
        for criterion in Criterion:
            assert bits(criterion.evaluate(row)) == bits(criterion.evaluate(window))


class TestRowValues:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", [3, 23])
    def test_fragmented_pools(self, policy, seed):
        pool = fragmented_pool(seed)
        for node_count, budget in ((2, None), (3, 60.0), (4, 400.0)):
            request = ResourceRequest(
                node_count=node_count, reservation_time=10.0, budget=budget
            )
            rows = rows_of(request, pool, policy)
            assert rows
            assert_rows_read_as_their_windows(rows)
            assert [row.as_window() for row in rows] == CSA(
                amp_policy=policy
            ).find_alternatives(request, pool)

    @ADVERSARIAL
    @given(case=adversarial_cases(), policy=st.sampled_from(POLICIES))
    def test_adversarial_pools(self, case, policy):
        assert_rows_read_as_their_windows(rows_of(case.request, case.pool(), policy))

    def test_cost_is_the_sum_the_sweep_tested(self):
        # Costs 0.3, 0.2 and 0.1 in arrival order (task(4) runs 1 on the
        # default node): added in waiting order they make 0.6, ascending
        # 0.6000000000000001.  Each row's legs are in its sweep's order,
        # so its cost is its window's.
        slots = [
            Slot(make_node(node_id, 4.0, price), float(node_id), 100.0)
            for node_id, price in enumerate((0.3, 0.2, 0.1))
        ]
        request = ResourceRequest(node_count=3, reservation_time=4.0)
        costs = {}
        for policy in POLICIES:
            [row] = rows_of(request, SlotPool.from_slots(slots), policy)
            window = row.as_window()
            assert bits(row.total_cost) == bits(window.total_cost)
            costs[policy] = row.total_cost
        assert costs == {"first": 0.6, "cheapest": 0.1 + 0.2 + 0.3}
        assert costs["first"] != costs["cheapest"]


@st.composite
def phase_two_cases(draw):
    """An adversarial pool, a batch of up to four jobs drawn from two
    request classes, an AMP policy, a cap and a VO budget."""
    case = draw(adversarial_cases())
    one_node = ResourceRequest(
        node_count=1,
        reservation_time=case.request.reservation_time,
        deadline=case.request.deadline,
    )
    jobs = [
        Job(
            f"j{index}",
            draw(st.sampled_from((case.request, one_node))),
            priority=draw(st.integers(min_value=0, max_value=2)),
        )
        for index in range(draw(st.integers(min_value=1, max_value=4)))
    ]
    policy = draw(st.sampled_from(POLICIES))
    cap = draw(st.sampled_from((None, 1, 3)))
    total = left_sum(
        slot.node.usage_cost(case.request.task_runtime_on(slot.node)) for slot in case.slots
    )
    vo_budget = draw(st.sampled_from((None, 0.0, 0.25 * total, total)))
    return case, jobs, policy, cap, vo_budget


@pytest.mark.parametrize("criterion", list(Criterion))
@ADVERSARIAL
@given(instance=phase_two_cases())
def test_phase_two_over_rows_equals_the_reference_over_windows(criterion, instance):
    case, jobs, policy, cap, vo_budget = instance
    pool = case.pool()
    search = CSA(max_alternatives=cap, amp_policy=policy)
    found = search.find_alternatives_batch(jobs, pool, cap)
    rows = {job.job_id: options for job, options in zip(jobs, found)}
    windows = {
        job_id: [option.as_window() for option in options]
        for job_id, options in rows.items()
    }
    choice = greedy_combination(jobs, rows, criterion, vo_budget)
    expected = reference_greedy(jobs, windows, criterion, vo_budget)
    assert choice.assignments == expected.assignments
    assert choice.unscheduled == expected.unscheduled
    assert bits(choice.total_value) == bits(expected.total_value)
    assert all(type(window) is Window for window in choice.assignments.values())


def tied_pool() -> SlotPool:
    """Nine nodes in three identical (performance, price) groups, with
    several interleaved slots each: many candidates with equal (cost,
    runtime) pairs, arriving in an order unrelated to their node ids."""
    rng = np.random.default_rng(5)
    slots = []
    for node_id in range(9):
        group = node_id % 3
        node = make_node(node_id, (2.0, 4.0, 2.0)[group], (1.5, 3.0, 1.5)[group])
        cursor = float(rng.uniform(0.0, 5.0))
        for _ in range(4):
            length = float(rng.uniform(10.0, 30.0))
            slots.append(Slot(node, cursor, cursor + length))
            cursor += length + float(rng.uniform(1.0, 4.0))
    return SlotPool.from_slots(slots)


def plan_of(pool: SlotPool, request: ResourceRequest):
    arrays = pool.as_arrays()
    return arrays, vectorized._plan_for(arrays, request)


class TestCostOrder:
    def test_node_ranks_order_ties_by_arrival(self):
        request = ResourceRequest(node_count=2, reservation_time=8.0)
        _, plan = plan_of(tied_pool(), request)
        assert plan.count > 20
        pairs = list(zip(plan.cost_c.tolist(), plan.req_c.tolist()))
        assert len(set(pairs)) == 2 < plan.count  # nodes 0, 2, 3, 5, ... tie
        expected = np.lexsort((plan.req_c, plan.cost_c))
        assert plan.cost_order.tolist() == expected.tolist()
        assert plan.cand_by_crank == expected.tolist()

    @ADVERSARIAL
    @given(case=adversarial_cases())
    def test_adversarial_pools(self, case):
        _, plan = plan_of(case.pool(), case.request)
        if plan is None:
            return
        expected = np.lexsort((plan.req_c, plan.cost_c))
        assert plan.cost_order.tolist() == expected.tolist()


#: The lists a plan builds on first read.
LAZY = ("loop_start", "loop_cand", "req_by_crank", "req_list", "cost_list")


class TestLazyLists:
    @pytest.mark.parametrize("pool_of", [tied_pool, lambda: fragmented_pool(7)])
    def test_equal_lists_built_from_the_slots(self, pool_of):
        pool = pool_of()
        request = ResourceRequest(node_count=2, reservation_time=8.0, deadline=70.0)
        _, plan = plan_of(pool, request)
        assert not set(LAZY) & set(vars(plan))  # nothing built yet
        slots = pool.ordered()
        matching = [slot for slot in slots if request.node_matches(slot.node)]
        loop_cand, req_list, cost_list = [], [], []
        for slot in matching:
            runtime = request.task_runtime_on(slot.node)
            if fits_from(last_start(slot.end, runtime, request.deadline), slot.start):
                loop_cand.append(len(req_list))
                req_list.append(runtime)
                cost_list.append(slot.node.usage_cost(runtime))
            else:
                loop_cand.append(-1)
        assert plan.loop_start == [slot.start for slot in matching]
        assert plan.loop_cand == loop_cand
        assert plan.req_list == req_list
        assert plan.cost_list == cost_list
        assert plan.req_by_crank == [req_list[c] for c in plan.cand_by_crank]
        assert plan.cost_by_crank == [cost_list[c] for c in plan.cand_by_crank]
        assert set(LAZY) <= set(vars(plan))

    def test_a_sweep_builds_only_what_it_reads(self):
        pool = fragmented_pool(7)
        request = ResourceRequest(node_count=2, reservation_time=8.0)
        assert rows_of(request, pool, "cheapest")
        _, plan = plan_of(pool, request)
        assert not set(LAZY) & set(vars(plan))
        # The eviction sweep reads the candidates' costs, and only them.
        assert rows_of(request, pool, "first")
        assert set(LAZY) & set(vars(plan)) == {"cost_list"}
        # No search lists the snapshot's slots.
        assert pool.as_arrays()._slots is None


class TestLifetime:
    def test_committed_windows_keep_no_snapshot_alive(self):
        pool = fragmented_pool(11)
        batch = JobBatch(
            [
                Job(f"j{index}", ResourceRequest(node_count=2, reservation_time=8.0))
                for index in range(4)
            ]
        )
        scheduler = BatchScheduler(
            search=CSA(max_alternatives=5, amp_policy="cheapest"),
            alternatives_per_job=5,
        )
        snapshot = weakref.ref(pool.as_arrays())
        report = scheduler.plan(batch, pool.copy())
        assert report.scheduled
        for window in report.scheduled.values():
            pool.commit_window(window)
        # The commit drops the pool's snapshot, and no reference cycle
        # holds it either: it dies without a collection.
        assert snapshot() is None
        assert all(window.is_valid() for window in report.scheduled.values())
