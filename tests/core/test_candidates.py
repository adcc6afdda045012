"""Unit tests for the leg factory, plus the complexity-counter
regression: amortized per-slot work must stay bounded as the pool grows
(each candidate enters and leaves the extended window at most once, so
``inserts + expiries <= 2 * slots_scanned`` at every size)."""

from __future__ import annotations

import pytest

from repro.core.aep import aep_scan
from repro.core.candidates import LegFactory
from repro.core.extractors import MinRuntimeSubstitutionExtractor, MinTotalCostExtractor
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import ResourceRequest, Slot
from tests.conftest import make_node, make_slot


@pytest.fixture
def request3():
    return ResourceRequest(node_count=3, reservation_time=20.0, budget=1000.0)


class TestLegFactory:
    def test_caches_per_node(self, request3):
        factory = LegFactory(request3)
        node = make_node(1, performance=4.0, price=2.0)
        first = factory.leg(Slot(node, 0.0, 50.0))
        second = factory.leg(Slot(node, 60.0, 90.0))
        # task(20) on perf 4 runs 5 units and costs 10 at price 2
        assert first.required_time == second.required_time == 5.0
        assert first.cost == second.cost == 10.0
        assert first.slot.start == 0.0 and second.slot.start == 60.0

    def test_matches_window_slot_for_request(self, request3):
        from repro.model.window import WindowSlot

        factory = LegFactory(request3)
        slot = make_slot(2, 10.0, 80.0, performance=5.0, price=4.0)
        direct = WindowSlot.for_request(slot, request3)
        cached = factory.leg(slot)
        assert cached.required_time == direct.required_time
        assert cached.cost == direct.cost


class TestComplexityCounters:
    """The amortized-O(1) bookkeeping bound, asserted as pool size grows."""

    NODE_COUNTS = (50, 100, 200)

    def _scan(self, node_count, extractor):
        environment = EnvironmentGenerator(
            EnvironmentConfig(node_count=node_count, seed=2013)
        ).generate()
        slots = environment.slot_pool().ordered()
        request = ResourceRequest(node_count=5, reservation_time=150.0, budget=1500.0)
        result = aep_scan(request, slots, extractor)
        assert result is not None
        return result, node_count

    @pytest.mark.parametrize("nodes", NODE_COUNTS)
    def test_per_slot_work_bounded(self, nodes):
        result, node_count = self._scan(nodes, MinRuntimeSubstitutionExtractor())
        assert result.candidate_inserts <= result.slots_scanned
        assert result.candidate_expiries <= result.candidate_inserts
        # Each slot contributes at most one insert and one expiry over the
        # whole scan — the linearity invariant, independent of pool size.
        mutations = result.candidate_inserts + result.candidate_expiries
        assert mutations <= 2 * result.slots_scanned
        assert result.candidate_peak <= node_count

    def test_mutation_ratio_does_not_grow(self):
        """Amortized mutations per scanned slot stay <= 2 at every size —
        the regression guard against reintroducing per-step rebuilds."""
        ratios = []
        for nodes in self.NODE_COUNTS:
            result, _ = self._scan(nodes, MinTotalCostExtractor())
            ratios.append(
                (result.candidate_inserts + result.candidate_expiries)
                / result.slots_scanned
            )
        assert all(ratio <= 2.0 for ratio in ratios)

    def test_counters_default_zero(self):
        from repro.core.aep import ScanResult
        from repro.model.window import Window, WindowSlot

        request = ResourceRequest(node_count=1, reservation_time=20.0, budget=100.0)
        leg = WindowSlot.for_request(make_slot(0, 0.0, 100.0), request)
        result = ScanResult(
            window=Window(start=0.0, slots=(leg,)), value=0.0, steps=0
        )
        assert result.candidate_inserts == 0
        assert result.candidate_expiries == 0
