"""Window invariants every selection algorithm must honour.

One parametrized suite over *all* algorithms in :mod:`repro.core.algorithms`:
whatever a ``select()`` returns must be a legal co-allocation — ``n``
distinct nodes, a synchronous start each leg's slot can host, and a total
cost within the budget.  The :func:`assert_window_invariants` helper is
shared with the service-layer tests, which apply it to every window a
broker cycle commits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import (
    AMP,
    CSA,
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
from repro.model import Job, ResourceRequest, Window
from repro.model.window import budget_limit

from tests.conftest import random_small_pool

ALGORITHMS = [
    AMP,
    CSA,
    Exhaustive,
    FirstFit,
    MinCost,
    MinEnergy,
    MinFinish,
    MinIdle,
    MinProcTime,
    MinRunTime,
    RigidBackfill,
]


def assert_window_invariants(
    window: Window, request: ResourceRequest, cost_aware: bool = True
) -> None:
    """Assert the co-allocation invariants of one selected window.

    * exactly ``request.node_count`` legs on pairwise distinct nodes;
    * every leg fits its slot from the common (synchronous) start;
    * with ``cost_aware`` (every AEP-family algorithm): the total cost
      respects the effective budget, the per-leg durations are the
      performance-scaled task runtimes, and the window passes its own
      :meth:`~repro.model.Window.validate` against the request.

    ``cost_aware=False`` is for :class:`RigidBackfill`, which by design
    ignores the budget and does not scale durations by node performance —
    only the structural co-allocation shape applies to it.
    """
    assert len(window.slots) == request.node_count
    node_ids = [ws.slot.node.node_id for ws in window.slots]
    assert len(set(node_ids)) == len(node_ids), f"repeated nodes: {node_ids}"
    for ws in window.slots:
        assert ws.fits_from(window.start), (
            f"leg on node {ws.slot.node.node_id} does not fit from {window.start}"
        )
    if not cost_aware:
        window.validate()  # structural invariants only
        return
    budget = request.effective_budget
    if budget is not None:
        assert window.total_cost <= budget_limit(budget)
    window.validate(request)


@pytest.fixture(params=ALGORITHMS, ids=lambda cls: cls.__name__)
def algorithm(request):
    return request.param()


@pytest.mark.parametrize(
    "pool_fixture", ["uniform_pool", "heterogeneous_pool"]
)
def test_invariants_on_fixture_pools(algorithm, pool_fixture, request):
    pool = request.getfixturevalue(pool_fixture)
    job = Job(
        "inv-job",
        ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0),
    )
    window = algorithm.select(job, pool)
    assert window is not None, f"{type(algorithm).__name__} found nothing"
    assert_window_invariants(
        window, job.request, cost_aware=not isinstance(algorithm, RigidBackfill)
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_invariants_on_random_pools(algorithm, seed):
    rng = np.random.default_rng(seed)
    pool = random_small_pool(rng, node_count=8, horizon=60.0)
    job = Job(
        f"inv-rand-{seed}",
        ResourceRequest(node_count=3, reservation_time=10.0, budget=400.0),
    )
    window = algorithm.select(job, pool)
    if window is not None:
        assert_window_invariants(
            window, job.request, cost_aware=not isinstance(algorithm, RigidBackfill)
        )


def test_invariants_with_tight_budget(algorithm, heterogeneous_pool):
    """A budget-capped request must never yield an over-budget window."""
    job = Job(
        "inv-tight",
        ResourceRequest(node_count=2, reservation_time=20.0, budget=21.0),
    )
    window = algorithm.select(job, heterogeneous_pool)
    if window is not None:
        assert_window_invariants(
            window, job.request, cost_aware=not isinstance(algorithm, RigidBackfill)
        )


def test_infeasible_request_returns_none(algorithm, uniform_pool):
    """More nodes than the pool has means no window at all."""
    job = Job(
        "inv-infeasible",
        ResourceRequest(node_count=9, reservation_time=20.0, budget=1e6),
    )
    assert algorithm.select(job, uniform_pool) is None
