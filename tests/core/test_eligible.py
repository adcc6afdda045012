"""Cheapest-eligible selection at a fixed start, and deadline behaviour.

Successor of the retired ``repro.core.fastscan`` equivalence suite.  The
"up to ``n`` cheapest candidates able to finish by the deadline" query
now has one caller and lives inside it:
:func:`repro.core.repair.find_fixed_start_replacements`.  These tests
cover its cost-order and deadline cases, plus the deadline behaviour the
shim's callers relied on, through the public algorithms.
"""

import numpy as np
import pytest

from repro.core import AMP, MinCost
from repro.core.repair import find_fixed_start_replacements
from repro.model import ResourceRequest, SlotPool
from tests.conftest import make_slot, random_small_pool


def random_request(rng):
    return ResourceRequest(
        node_count=int(rng.integers(1, 4)),
        reservation_time=float(rng.uniform(5.0, 25.0)),
        budget=float(rng.uniform(20.0, 200.0)),
    )


def replacements(count, start, deadline=None):
    """Replacement legs' node ids over three always-free slots.

    With ``reservation_time=20``: node 0 (perf 2) runs 10 units for 10,
    node 1 (perf 4) runs 5 units for 15, node 2 (perf 8) runs 2.5 units
    for 22.5 — cost order [0, 1, 2], runtime order [2, 1, 0].
    """
    pool = SlotPool.from_slots(
        make_slot(node_id, 0.0, 100.0, performance, price)
        for node_id, performance, price in ((0, 2.0, 1.0), (1, 4.0, 3.0), (2, 8.0, 9.0))
    )
    request = ResourceRequest(node_count=2, reservation_time=20.0, deadline=deadline)
    legs = find_fixed_start_replacements(
        pool, request, start, count, exclude_nodes=set(), budget=float("inf")
    )
    return None if legs is None else [leg.slot.node.node_id for leg in legs]


class TestEligible:
    def test_no_deadline_returns_cheapest_n(self):
        assert replacements(2, start=0.0) == [0, 1]

    def test_deadline_filters_slow_candidates(self):
        # node 0 needs 10 units; from start 45 it misses the 50 deadline,
        # so the selection must skip to the dearer-but-faster nodes.
        assert replacements(2, start=45.0, deadline=50.0) == [1, 2]

    def test_deadline_comes_from_the_request(self):
        # A 200 deadline admits everyone from start 45; 50 leaves two.
        assert replacements(3, start=45.0, deadline=200.0) == [0, 1, 2]
        assert replacements(3, start=45.0, deadline=50.0) is None

    def test_none_when_not_enough_fit(self):
        # Only node 2 (2.5 units) can finish within 3 time units.
        assert replacements(1, start=0.0, deadline=3.0) == [2]
        assert replacements(2, start=0.0, deadline=3.0) is None


class TestPublicAlgorithms:
    """The shim's behavioral guarantees, through the public entry points."""

    def test_min_cost_on_random_pools(self):
        rng = np.random.default_rng(21)
        algorithm = MinCost()
        for _ in range(30):
            pool = random_small_pool(rng, node_count=int(rng.integers(3, 12)))
            request = random_request(rng)
            window = algorithm.select(request, pool)
            if window is not None:
                window.validate(request)

    def test_min_cost_on_fixture(self, heterogeneous_pool):
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=100.0)
        window = MinCost().select(request, heterogeneous_pool)
        assert window.total_cost == pytest.approx(20.0)

    def test_deadline_respected(self, heterogeneous_pool):
        request = ResourceRequest(
            node_count=2, reservation_time=20.0, budget=100.0, deadline=10.0
        )
        window = MinCost().select(request, heterogeneous_pool)
        if window is not None:
            assert window.finish <= 10.0 + 1e-9
            window.validate(request)

    def test_infeasible_cases(self, heterogeneous_pool):
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=5.0)
        assert MinCost().select(request, heterogeneous_pool) is None
        assert AMP(policy="cheapest").select(request, heterogeneous_pool) is None
