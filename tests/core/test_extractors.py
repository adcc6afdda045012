"""Unit tests for the per-criterion window extractors.

Each extractor is exercised on hand-built candidate sets with known
optima, and the heuristics are cross-checked against their exact
counterparts.
"""

import numpy as np
import pytest

from repro.core.extractors import (
    EarliestFinishExtractor,
    EarliestStartExtractor,
    ExactAdditiveExtractor,
    GreedyAdditiveExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
    RandomWindowExtractor,
    cheapest_subset,
)
from repro.model import ResourceRequest, WindowSlot
from tests.conftest import make_slot


def candidate(node_id, performance, price, reservation=20.0, start=0.0, end=200.0):
    slot = make_slot(node_id, start, end, performance, price)
    request = ResourceRequest(node_count=1, reservation_time=reservation)
    return WindowSlot.for_request(slot, request)


@pytest.fixture
def mixed_candidates():
    """Five nodes: (perf, price) -> (required_time, cost) for t_s = 20.

    node 0: perf 2,  price 1   -> time 10, cost 10
    node 1: perf 4,  price 2   -> time  5, cost 10
    node 2: perf 5,  price 4   -> time  4, cost 16
    node 3: perf 10, price 9   -> time  2, cost 18
    node 4: perf 1,  price 0.5 -> time 20, cost 10
    """
    specs = [(2.0, 1.0), (4.0, 2.0), (5.0, 4.0), (10.0, 9.0), (1.0, 0.5)]
    return [candidate(i, perf, price) for i, (perf, price) in enumerate(specs)]


def request(n, budget):
    return ResourceRequest(node_count=n, reservation_time=20.0, budget=budget)


class TestCheapestSubset:
    def test_picks_n_cheapest(self, mixed_candidates):
        chosen = cheapest_subset(mixed_candidates, 2, budget=100.0)
        assert sorted(ws.cost for ws in chosen) == [10.0, 10.0]

    def test_none_when_too_few(self, mixed_candidates):
        assert cheapest_subset(mixed_candidates[:1], 2, budget=100.0) is None

    def test_none_when_over_budget(self, mixed_candidates):
        assert cheapest_subset(mixed_candidates, 2, budget=19.0) is None

    def test_exact_budget_ok(self, mixed_candidates):
        assert cheapest_subset(mixed_candidates, 2, budget=20.0) is not None


class TestEarliestStartExtractor:
    def test_value_is_window_start(self, mixed_candidates):
        extraction = EarliestStartExtractor().extract(
            7.5, mixed_candidates, request(2, 100.0)
        )
        assert extraction.value == pytest.approx(7.5)

    def test_infeasible_returns_none(self, mixed_candidates):
        assert (
            EarliestStartExtractor().extract(0.0, mixed_candidates, request(2, 19.0))
            is None
        )


class TestMinTotalCostExtractor:
    def test_minimal_cost_selected(self, mixed_candidates):
        extraction = MinTotalCostExtractor().extract(
            0.0, mixed_candidates, request(3, 100.0)
        )
        assert extraction.value == pytest.approx(30.0)  # the three cost-10 legs

    def test_budget_binding(self, mixed_candidates):
        assert (
            MinTotalCostExtractor().extract(0.0, mixed_candidates, request(3, 29.0))
            is None
        )

    def test_unlimited_budget(self, mixed_candidates):
        req = ResourceRequest(node_count=5, reservation_time=20.0)
        extraction = MinTotalCostExtractor().extract(0.0, mixed_candidates, req)
        assert extraction.value == pytest.approx(10 + 10 + 16 + 18 + 10)


class TestMinRuntimeSubstitution:
    def test_upgrades_to_faster_slots_within_budget(self, mixed_candidates):
        # n=2: cheapest two are times {10, 5} or {10, 20}... cheapest by cost
        # are the three cost-10 legs; with budget 28 the extractor can swap
        # the slowest for the 16-cost perf-5 leg (time 4).
        extraction = MinRuntimeSubstitutionExtractor().extract(
            0.0, mixed_candidates, request(2, 28.0)
        )
        assert extraction is not None
        assert extraction.value <= 10.0

    def test_with_big_budget_reaches_fastest_pair(self, mixed_candidates):
        extraction = MinRuntimeSubstitutionExtractor().extract(
            0.0, mixed_candidates, request(2, 100.0)
        )
        assert extraction.value == pytest.approx(4.0)  # perf 10 (2) + perf 5 (4)

    def test_infeasible_returns_none(self, mixed_candidates):
        assert (
            MinRuntimeSubstitutionExtractor().extract(
                0.0, mixed_candidates, request(2, 15.0)
            )
            is None
        )

    def test_never_exceeds_budget(self, mixed_candidates):
        for budget in (20.0, 26.0, 28.0, 34.0, 100.0):
            extraction = MinRuntimeSubstitutionExtractor().extract(
                0.0, mixed_candidates, request(3, budget)
            )
            if extraction is not None:
                assert sum(ws.cost for ws in extraction.slots) <= budget + 1e-6


class TestMinRuntimeExact:
    def test_matches_brute_force_on_fixture(self, mixed_candidates):
        extraction = MinRuntimeExactExtractor().extract(
            0.0, mixed_candidates, request(2, 28.0)
        )
        # Brute force: feasible pairs within budget 28 and their max times:
        # {0,1}: cost 20 time 10; {0,4}: 20/20; {1,4}: 20/20; {1,2}: 26/5;
        # {0,2}: 26/10; {4,2}: 26/20; {3,*}: >= 28 -> {3,4}: 28 wait cost 18+10=28 time 20
        # {3,0}: 28 time 10; {3,1}: 28 time 5.
        # Minimum achievable max-time is 5 ({1,2} or {3,1}).
        assert extraction.value == pytest.approx(5.0)

    def test_exact_never_worse_than_substitution(self, mixed_candidates):
        for n in (2, 3, 4):
            for budget in (25.0, 30.0, 40.0, 60.0, 100.0):
                req = request(n, budget)
                exact = MinRuntimeExactExtractor().extract(0.0, mixed_candidates, req)
                heur = MinRuntimeSubstitutionExtractor().extract(
                    0.0, mixed_candidates, req
                )
                assert (exact is None) == (heur is None)
                if exact is not None:
                    assert exact.value <= heur.value + 1e-9

    def test_random_instances_against_brute_force(self):
        rng = np.random.default_rng(4)
        from itertools import combinations

        for trial in range(50):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(2, min(4, m) + 1))
            cands = [
                candidate(
                    i,
                    performance=float(rng.integers(1, 11)),
                    price=float(rng.uniform(0.2, 5.0)),
                )
                for i in range(m)
            ]
            budget = float(rng.uniform(20.0, 120.0))
            req = request(n, budget)
            exact = MinRuntimeExactExtractor().extract(0.0, cands, req)
            best = None
            for combo in combinations(cands, n):
                if sum(ws.cost for ws in combo) <= budget + 1e-9:
                    value = max(ws.required_time for ws in combo)
                    if best is None or value < best:
                        best = value
            if best is None:
                assert exact is None
            else:
                assert exact is not None
                assert exact.value == pytest.approx(best)


class TestEarliestFinish:
    def test_value_offsets_start(self, mixed_candidates):
        runtime = MinRuntimeExactExtractor().extract(
            0.0, mixed_candidates, request(2, 100.0)
        )
        finish = EarliestFinishExtractor(MinRuntimeExactExtractor()).extract(
            12.0, mixed_candidates, request(2, 100.0)
        )
        assert finish.value == pytest.approx(12.0 + runtime.value)

    def test_default_backend_is_substitution(self, mixed_candidates):
        extraction = EarliestFinishExtractor().extract(
            0.0, mixed_candidates, request(2, 100.0)
        )
        assert extraction is not None

    def test_infeasible_returns_none(self, mixed_candidates):
        assert (
            EarliestFinishExtractor().extract(0.0, mixed_candidates, request(2, 5.0))
            is None
        )


class TestRandomWindowExtractor:
    def test_respects_budget(self, mixed_candidates):
        rng = np.random.default_rng(0)
        extractor = RandomWindowExtractor(rng=rng)
        for _ in range(50):
            extraction = extractor.extract(0.0, mixed_candidates, request(2, 21.0))
            assert extraction is not None
            assert sum(ws.cost for ws in extraction.slots) <= 21.0 + 1e-6

    def test_infeasible_returns_none(self, mixed_candidates):
        extractor = RandomWindowExtractor(rng=np.random.default_rng(0))
        assert extractor.extract(0.0, mixed_candidates, request(2, 10.0)) is None

    def test_too_few_candidates(self, mixed_candidates):
        extractor = RandomWindowExtractor(rng=np.random.default_rng(0))
        assert extractor.extract(0.0, mixed_candidates[:1], request(2, 100.0)) is None

    def test_value_is_additive_key(self, mixed_candidates):
        extractor = RandomWindowExtractor(rng=np.random.default_rng(3))
        extraction = extractor.extract(0.0, mixed_candidates, request(3, 1000.0))
        assert extraction.value == pytest.approx(
            sum(ws.required_time for ws in extraction.slots)
        )

    def test_reproducible_with_seeded_rng(self, mixed_candidates):
        a = RandomWindowExtractor(rng=np.random.default_rng(5)).extract(
            0.0, mixed_candidates, request(2, 1000.0)
        )
        b = RandomWindowExtractor(rng=np.random.default_rng(5)).extract(
            0.0, mixed_candidates, request(2, 1000.0)
        )
        assert [ws.slot.node.node_id for ws in a.slots] == [
            ws.slot.node.node_id for ws in b.slots
        ]


class TestAdditiveExtractors:
    def test_greedy_minimizes_proc_time_on_fixture(self, mixed_candidates):
        extraction = GreedyAdditiveExtractor().extract(
            0.0, mixed_candidates, request(2, 100.0)
        )
        # Optimum: perf 10 (time 2) + perf 5 (time 4) = 6.
        assert extraction.value == pytest.approx(6.0)

    def test_exact_matches_greedy_on_fixture(self, mixed_candidates):
        for budget in (21.0, 27.0, 30.0, 40.0, 100.0):
            req = request(2, budget)
            greedy = GreedyAdditiveExtractor().extract(0.0, mixed_candidates, req)
            exact = ExactAdditiveExtractor().extract(0.0, mixed_candidates, req)
            assert (greedy is None) == (exact is None)
            if exact is not None:
                assert exact.value <= greedy.value + 1e-9

    def test_exact_against_brute_force_random(self):
        rng = np.random.default_rng(8)
        from itertools import combinations

        for _ in range(40):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(2, min(4, m) + 1))
            cands = [
                candidate(
                    i,
                    performance=float(rng.integers(1, 11)),
                    price=float(rng.uniform(0.2, 5.0)),
                )
                for i in range(m)
            ]
            budget = float(rng.uniform(20.0, 120.0))
            req = request(n, budget)
            exact = ExactAdditiveExtractor().extract(0.0, cands, req)
            best = None
            for combo in combinations(cands, n):
                if sum(ws.cost for ws in combo) <= budget + 1e-9:
                    value = sum(ws.required_time for ws in combo)
                    if best is None or value < best:
                        best = value
            if best is None:
                assert exact is None
            else:
                assert exact.value == pytest.approx(best)

    def test_exact_prices_the_last_item_taken(self):
        """The feasibility bound vouches for the cheapest completion
        only; a subset whose last-taken item busts the budget must not
        be accepted (the fastest pair here costs 102)."""
        cands = [
            candidate(0, performance=10.0, price=1.0),   # time 2, cost 2
            candidate(1, performance=5.0, price=25.0),   # time 4, cost 100
            candidate(2, performance=4.0, price=1.0),    # time 5, cost 5
        ]
        exact = ExactAdditiveExtractor().extract(0.0, cands, request(2, 50.0))
        assert sum(ws.cost for ws in exact.slots) <= 50.0
        assert exact.value == pytest.approx(7.0)

    def test_greedy_never_exceeds_budget(self, mixed_candidates):
        for budget in (20.0, 26.0, 36.0, 44.0):
            extraction = GreedyAdditiveExtractor().extract(
                0.0, mixed_candidates, request(3, budget)
            )
            if extraction is not None:
                assert sum(ws.cost for ws in extraction.slots) <= budget + 1e-6

    def test_custom_key(self, mixed_candidates):
        # Minimizing energy instead of time changes the chosen pair.
        energy = GreedyAdditiveExtractor(key=lambda ws: ws.energy()).extract(
            0.0, mixed_candidates, request(2, 100.0)
        )
        time = GreedyAdditiveExtractor().extract(0.0, mixed_candidates, request(2, 100.0))
        assert energy.value == pytest.approx(sum(ws.energy() for ws in energy.slots))
        assert {ws.slot.node.node_id for ws in energy.slots} != {
            ws.slot.node.node_id for ws in time.slots
        } or energy.value <= sum(ws.energy() for ws in time.slots) + 1e-9
