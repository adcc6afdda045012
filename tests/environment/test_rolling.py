"""Rolling-horizon slot supply: determinism, bounds, broker integration."""

from __future__ import annotations

import pytest

from repro.environment import EnvironmentConfig
from repro.environment.rolling import HorizonConfig, RollingHorizonSource
from repro.model import SlotPool
from repro.model.errors import ConfigurationError
from repro.service import BrokerService, ServiceConfig
from repro.simulation.jobgen import JobGenerator


def spans(pool: SlotPool):
    return [(s.node.node_id, s.start, s.end) for s in pool.ordered()]


class TestHorizonConfig:
    def test_rejects_nonpositive_lead_and_stride(self):
        with pytest.raises(ConfigurationError):
            HorizonConfig(lead=0.0)
        with pytest.raises(ConfigurationError):
            HorizonConfig(stride=-1.0)


class TestRollingHorizonSource:
    CONFIG = EnvironmentConfig(node_count=8, seed=42)

    def test_fleet_is_stable_and_seeded(self):
        first = RollingHorizonSource(self.CONFIG, HorizonConfig())
        second = RollingHorizonSource(self.CONFIG, HorizonConfig())
        assert [(n.node_id, n.performance, n.price_per_unit) for n in first.nodes] \
            == [(n.node_id, n.performance, n.price_per_unit) for n in second.nodes]

    def test_extension_is_call_pattern_independent(self):
        """Slots are a pure function of (config, seed, segment): stepping
        the horizon in many small increments or one leap yields
        byte-identical pools."""
        horizon = HorizonConfig(lead=100.0, stride=50.0)
        fine = RollingHorizonSource(self.CONFIG, horizon)
        coarse = RollingHorizonSource(self.CONFIG, horizon)
        fine_pool, coarse_pool = SlotPool(), SlotPool()
        for step in range(1, 41):
            fine.extend_to(fine_pool, step * 25.0)
        coarse.extend_to(coarse_pool, 1000.0)
        assert fine.segments_published == coarse.segments_published
        assert spans(fine_pool) == spans(coarse_pool)

    def test_published_slots_stay_inside_segments(self):
        horizon = HorizonConfig(lead=100.0, stride=60.0)
        source = RollingHorizonSource(self.CONFIG, horizon)
        pool = SlotPool()
        source.extend_to(pool, 300.0)
        assert source.published_until >= 300.0
        for slot in pool:
            assert slot.start >= self.CONFIG.interval_start
            assert slot.end <= source.published_until

    def test_ensure_is_idempotent(self):
        source = RollingHorizonSource(self.CONFIG, HorizonConfig())
        pool = SlotPool()
        added = source.ensure(pool, 0.0)
        assert added > 0
        assert source.ensure(pool, 0.0) == 0

    def test_unseeded_source_is_internally_consistent(self):
        config = EnvironmentConfig(node_count=4, seed=None)
        source = RollingHorizonSource(config, HorizonConfig())
        pool = SlotPool()
        source.extend_to(pool, 600.0)
        assert len(pool) > 0


class TestBrokerIntegration:
    def test_pool_stays_inside_bounded_window(self):
        """Trim + extend keeps the live pool inside [now, now+lead+stride)
        over many cycles — the flat-memory property of soak serving."""
        config = EnvironmentConfig(node_count=10, seed=7)
        horizon = HorizonConfig(lead=150.0, stride=75.0)
        source = RollingHorizonSource(config, horizon)
        pool = SlotPool()
        service = ServiceConfig(batch_size=4, check_invariants=False)
        sizes = []
        broker = BrokerService(
            pool, config=service, horizon_source=source
        )
        assert broker.stats.slots_published > 0
        for t, job in JobGenerator(seed=11).iter_arrivals(120, rate=0.5):
            broker.advance_to(t)
            broker.submit(job)
            broker.pump()
            sizes.append(len(pool))
            for slot in pool:
                assert slot.end > broker.now  # past is trimmed
                assert slot.start < broker.now + horizon.lead + horizon.stride
        broker.drain()
        # Bounded: the pool never grows with virtual time.
        assert max(sizes) < 40 * config.node_count

    def test_without_horizon_source_behaviour_unchanged(self):
        """horizon_source=None keeps the fixed-interval code path: no
        slots are ever published."""
        from repro.environment import EnvironmentGenerator

        pool = EnvironmentGenerator(
            EnvironmentConfig(node_count=6, seed=3)
        ).generate().slot_pool()
        broker = BrokerService(pool, config=ServiceConfig(batch_size=4))
        for t, job in JobGenerator(seed=5).iter_arrivals(20, rate=1.0):
            broker.advance_to(t)
            broker.submit(job)
            broker.pump()
        broker.drain()
        assert broker.stats.slots_published == 0
