"""Hypothesis property tests for the selection algorithms.

Random small instances, checked against the algorithms' contracts:
windows validate, optimal algorithms match the exhaustive reference,
heuristics never beat exact variants, budget monotonicity holds.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    AMP,
    CSA,
    Criterion,
    Exhaustive,
    FirstFit,
    MinCost,
    MinEnergy,
    MinFinish,
    MinIdle,
    MinProcTime,
    MinRunTime,
    RigidBackfill,
)
from repro.model import ResourceRequest, Slot, SlotPool
from tests.conftest import make_node
from tests.strategies import (
    ADVERSARIAL,
    EDGE_OF_COMMIT,
    EXPIRED_ON_ARRIVAL,
    adversarial_cases,
)


@st.composite
def slot_pools(draw, max_nodes=7, horizon=80.0):
    """A random slot pool: one slot per node, varied speed/price/spans."""
    node_count = draw(st.integers(min_value=2, max_value=max_nodes))
    slots = []
    for node_id in range(node_count):
        performance = draw(st.integers(min_value=1, max_value=10))
        price = draw(
            st.floats(min_value=0.25, max_value=6.0, allow_nan=False)
        )
        start = draw(st.floats(min_value=0.0, max_value=horizon / 2, allow_nan=False))
        length = draw(st.floats(min_value=5.0, max_value=horizon, allow_nan=False))
        node = make_node(node_id, float(performance), price)
        slots.append(Slot(node, start, start + length))
    return SlotPool.from_slots(slots)


@st.composite
def requests(draw):
    return ResourceRequest(
        node_count=draw(st.integers(min_value=1, max_value=3)),
        reservation_time=draw(
            st.floats(min_value=2.0, max_value=30.0, allow_nan=False)
        ),
        budget=draw(st.floats(min_value=10.0, max_value=300.0, allow_nan=False)),
    )


@given(pool=slot_pools(), request=requests())
@settings(max_examples=60, deadline=None)
def test_windows_always_validate(pool, request):
    for algorithm in (AMP(), AMP(policy="cheapest"), MinCost(), MinRunTime(), MinFinish()):
        window = algorithm.select(request, pool)
        if window is not None:
            window.validate(request)


@given(pool=slot_pools(), request=requests())
@settings(max_examples=40, deadline=None)
def test_mincost_is_globally_optimal(pool, request):
    ours = MinCost().select(request, pool)
    reference = Exhaustive(Criterion.COST).select(request, pool)
    assert (ours is None) == (reference is None)
    if ours is not None:
        assert ours.total_cost <= reference.total_cost + 1e-6


@given(pool=slot_pools(), request=requests())
@settings(max_examples=40, deadline=None)
def test_exact_runtime_is_globally_optimal(pool, request):
    ours = MinRunTime(exact=True).select(request, pool)
    reference = Exhaustive(Criterion.RUNTIME).select(request, pool)
    assert (ours is None) == (reference is None)
    if ours is not None:
        assert ours.runtime <= reference.runtime + 1e-6


@given(pool=slot_pools(), request=requests())
@settings(max_examples=40, deadline=None)
def test_substitution_never_beats_exact_runtime(pool, request):
    heuristic = MinRunTime(exact=False).select(request, pool)
    exact = MinRunTime(exact=True).select(request, pool)
    assert (heuristic is None) == (exact is None)
    if heuristic is not None:
        assert exact.runtime <= heuristic.runtime + 1e-9


@given(pool=slot_pools(), request=requests(), extra=st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_budget_monotonicity(pool, request, extra):
    """A larger budget never makes the optimal runtime or cost worse."""
    richer = ResourceRequest(
        node_count=request.node_count,
        reservation_time=request.reservation_time,
        budget=request.budget + extra,
    )
    poor_runtime = MinRunTime(exact=True).select(request, pool)
    rich_runtime = MinRunTime(exact=True).select(richer, pool)
    if poor_runtime is not None:
        assert rich_runtime is not None
        assert rich_runtime.runtime <= poor_runtime.runtime + 1e-9
    poor_cost = MinCost().select(request, pool)
    rich_cost = MinCost().select(richer, pool)
    if poor_cost is not None:
        assert rich_cost is not None
        assert rich_cost.total_cost <= poor_cost.total_cost + 1e-9


@given(pool=slot_pools(), request=requests())
@settings(max_examples=30, deadline=None)
def test_csa_alternatives_disjoint_and_counted(pool, request):
    alternatives = CSA().find_alternatives(request, pool)
    for window in alternatives:
        window.validate(request)
    for i, a in enumerate(alternatives):
        for b in alternatives[i + 1 :]:
            assert not a.conflicts_with(b)
    # With consume-cutting, each alternative consumes node_count slots.
    assert len(alternatives) <= max(0, len(pool) // request.node_count)


@given(pool=slot_pools(), request=requests())
@settings(max_examples=40, deadline=None)
def test_deadline_only_removes_windows(pool, request):
    """Adding a deadline can only shrink the feasible set, never break it."""
    unconstrained = MinFinish(exact=True).select(request, pool)
    if unconstrained is None:
        return
    constrained_request = ResourceRequest(
        node_count=request.node_count,
        reservation_time=request.reservation_time,
        budget=request.budget,
        deadline=unconstrained.finish + 1.0,
    )
    window = MinFinish(exact=True).select(constrained_request, pool)
    assert window is not None
    assert window.finish <= unconstrained.finish + 1e-6


def _every_window(case):
    """``(window, request to validate it by)`` for every window each stock
    algorithm returns on the case's pool."""
    request = case.request
    pool = case.pool()
    # FirstFit ignores the budget; the rigid backfill also the runtimes,
    # so its legs are checked against the slots alone (and the deadline).
    unbudgeted = replace(request, budget=None)
    selectors = [
        (AMP(), request),
        (AMP(policy="cheapest"), request),
        (MinCost(), request),
        (MinRunTime(), request),
        (MinRunTime(exact=True), request),
        (MinFinish(), request),
        (MinProcTime(rng=np.random.default_rng(5)), request),
        (MinEnergy(), request),
        (MinIdle(), request),
        (Exhaustive(Criterion.COST), request),
        (FirstFit(), unbudgeted),
        (RigidBackfill(), None),
    ]
    for algorithm, check in selectors:
        window = algorithm.select(request, pool)
        if window is not None:
            yield window, check
    for policy in ("first", "cheapest"):
        for cut_mode in ("consume", "split"):
            csa = CSA(max_alternatives=4, cut_mode=cut_mode, amp_policy=policy)
            for window in csa.find_alternatives(request, pool):
                yield window, request


@ADVERSARIAL
@given(case=adversarial_cases(max_nodes=6))
@example(case=EXPIRED_ON_ARRIVAL)
@example(case=EDGE_OF_COMMIT)
def test_every_window_validates_and_commits_on_adversarial_pools(case):
    """On pools whose slot ends sit where the float spellings of the fit
    test disagree, every window any stock algorithm returns passes
    ``validate`` and commits into a copy of its pool: the searches, the
    check and the commit's host search read one test."""
    pool = case.pool()
    deadline = case.request.deadline
    for window, request in _every_window(case):
        window.validate(request)
        assert all(leg.fits_from(window.start, deadline) for leg in window.slots)
        pool.copy().commit_window(window)
