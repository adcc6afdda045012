"""Hypothesis property tests for phase two: the greedy pass against the
oracles of ``tests/scheduling/oracle.py``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Criterion
from repro.model import Job, ResourceRequest, Window, WindowSlot
from repro.model.slot import TIME_EPSILON
from repro.scheduling import greedy_combination
from tests.conftest import make_slot
from tests.scheduling.oracle import optimal_combination, reference_greedy


def _window(node_ids, start, price):
    request = ResourceRequest(node_count=len(node_ids), reservation_time=10.0)
    legs = tuple(
        WindowSlot.for_request(
            make_slot(node_id, start, start + 50.0, 4.0, price), request
        )
        for node_id in node_ids
    )
    return Window(start=start, slots=legs)


@st.composite
def instances(draw):
    """Random small phase-two instances with genuine conflicts."""
    job_count = draw(st.integers(min_value=1, max_value=4))
    jobs = [
        Job(
            f"job{i}",
            ResourceRequest(node_count=1, reservation_time=10.0),
            priority=draw(st.integers(min_value=0, max_value=5)),
        )
        for i in range(job_count)
    ]
    alternatives = {}
    for i in range(job_count):
        count = draw(st.integers(min_value=0, max_value=3))
        windows = []
        for _ in range(count):
            node = draw(st.integers(min_value=0, max_value=3))  # few nodes -> conflicts
            start = float(draw(st.sampled_from([0.0, 1.0, 10.0, 30.0])))
            price = float(draw(st.sampled_from([1.0, 2.0, 5.0])))
            windows.append(_window((node,), start, price))
        alternatives[f"job{i}"] = windows
    budget = draw(st.one_of(st.none(), st.floats(min_value=5.0, max_value=60.0)))
    return jobs, alternatives, budget


@given(instance=instances())
@settings(max_examples=120, deadline=None)
def test_greedy_output_is_consistent(instance):
    jobs, alternatives, budget = instance
    choice = greedy_combination(jobs, alternatives, Criterion.COST, budget)
    _check_choice(choice, jobs, alternatives, budget)


@given(instance=instances())
@settings(max_examples=80, deadline=None)
def test_optimal_output_is_consistent(instance):
    jobs, alternatives, budget = instance
    choice = optimal_combination(jobs, alternatives, Criterion.COST, budget)
    _check_choice(choice, jobs, alternatives, budget)


@given(instance=instances())
@settings(max_examples=80, deadline=None)
def test_optimal_schedules_at_least_as_many_as_greedy(instance):
    jobs, alternatives, budget = instance
    greedy = greedy_combination(jobs, alternatives, Criterion.COST, budget)
    optimal = optimal_combination(jobs, alternatives, Criterion.COST, budget)
    assert optimal.scheduled_count >= greedy.scheduled_count
    if optimal.scheduled_count == greedy.scheduled_count:
        assert optimal.total_value <= greedy.total_value + 1e-9


@st.composite
def shared_instances(draw):
    """Batches whose classmates share one list of the same ``Window``
    objects, as phase one's class grouping hands them out: interleaved
    priorities, optional VO budgets, windows reusing a node, and legs at
    most ``TIME_EPSILON`` long (which do not conflict with themselves)."""
    runtimes = [TIME_EPSILON / 2.0, TIME_EPSILON, 1.0, 5.0, 10.0]
    lists = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        windows = []
        for _ in range(draw(st.integers(min_value=0, max_value=5))):
            legs = tuple(
                WindowSlot(
                    slot=make_slot(node, 0.0, 100.0),
                    required_time=draw(st.sampled_from(runtimes)),
                    cost=float(draw(st.sampled_from([0.0, 1.0, 2.0, 5.0]))),
                )
                for node in draw(
                    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3)
                )
            )
            start = float(draw(st.sampled_from([0.0, 1.0, 5.0, 8.0])))
            windows.append(Window(start=start, slots=legs))
        lists.append(windows)
    jobs = []
    alternatives = {}
    for i in range(draw(st.integers(min_value=1, max_value=10))):
        job_id = f"job{i}"
        jobs.append(
            Job(
                job_id,
                ResourceRequest(node_count=1, reservation_time=10.0),
                priority=draw(st.integers(min_value=0, max_value=3)),
            )
        )
        alternatives[job_id] = list(lists[draw(st.integers(0, len(lists) - 1))])
    budget = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=25.0)))
    criterion = draw(st.sampled_from(list(Criterion)))
    return jobs, alternatives, criterion, budget


@given(instance=shared_instances())
@settings(max_examples=300, deadline=None)
def test_greedy_equals_reference_on_shared_lists(instance):
    jobs, alternatives, criterion, budget = instance
    choice = greedy_combination(jobs, alternatives, criterion, budget)
    expected = reference_greedy(jobs, alternatives, criterion, budget)
    assert choice.assignments.keys() == expected.assignments.keys()
    for job_id, window in expected.assignments.items():
        assert choice.assignments[job_id] is window
    assert choice.unscheduled == expected.unscheduled
    assert choice.total_value.hex() == expected.total_value.hex()


def _check_choice(choice, jobs, alternatives, budget):
    # Every assignment is one of the job's own alternatives.
    for job_id, window in choice.assignments.items():
        assert any(window is option for option in alternatives[job_id])
    # Assignments plus unscheduled partition the batch.
    ids = {job.job_id for job in jobs}
    assert set(choice.assignments) | set(choice.unscheduled) == ids
    assert not (set(choice.assignments) & set(choice.unscheduled))
    # Chosen windows are mutually conflict-free.
    chosen = list(choice.assignments.values())
    for i, a in enumerate(chosen):
        for b in chosen[i + 1 :]:
            assert not a.conflicts_with(b)
    # The VO budget holds.
    if budget is not None:
        assert choice.total_cost() <= budget + 1e-6
    # The reported value matches the assignments.
    assert choice.total_value == sum(
        Criterion.COST.evaluate(window) for window in chosen
    )
