"""Unit tests for the full environment generator."""

import numpy as np
import pytest

from repro.environment import Environment, EnvironmentConfig, EnvironmentGenerator
from repro.model import ConfigurationError, ResourceRequest, Timeline, Window, WindowSlot
from repro.model.slot import TIME_EPSILON
from tests.conftest import make_node


class TestConfigValidation:
    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            EnvironmentConfig(node_count=0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigurationError):
            EnvironmentConfig(interval_start=10.0, interval_end=10.0)

    def test_rejects_bad_performance_range(self):
        with pytest.raises(ConfigurationError):
            EnvironmentConfig(performance_range=(5, 2))
        with pytest.raises(ConfigurationError):
            EnvironmentConfig(performance_range=(0, 5))

    def test_interval_length(self):
        config = EnvironmentConfig(interval_start=100.0, interval_end=700.0)
        assert config.interval_length == pytest.approx(600.0)

    def test_with_node_count(self):
        config = EnvironmentConfig(node_count=100).with_node_count(200)
        assert config.node_count == 200

    def test_with_interval_length(self):
        config = EnvironmentConfig(interval_start=50.0).with_interval_length(1200.0)
        assert config.interval_end == pytest.approx(1250.0)
        assert config.interval_start == pytest.approx(50.0)


class TestGeneration:
    @pytest.fixture
    def environment(self):
        return EnvironmentGenerator(EnvironmentConfig(node_count=30, seed=5)).generate()

    def test_node_count(self, environment):
        assert len(environment.nodes) == 30
        assert len(environment.timelines) == 30

    def test_performance_range_is_integer_uniform(self):
        config = EnvironmentConfig(node_count=400, seed=1)
        env = EnvironmentGenerator(config).generate()
        performances = {node.performance for node in env.nodes}
        assert performances <= {float(p) for p in range(2, 11)}
        assert len(performances) >= 8  # all levels show up across 400 nodes

    def test_prices_positive(self, environment):
        assert all(node.price_per_unit > 0 for node in environment.nodes)

    def test_utilization_in_load_range(self):
        config = EnvironmentConfig(node_count=200, seed=3)
        env = EnvironmentGenerator(config).generate()
        assert 0.2 <= env.utilization() <= 0.4  # mean of [0.1, 0.5] draws

    def test_slots_sorted_by_start(self, environment):
        slots = environment.slots()
        starts = [slot.start for slot in slots]
        assert starts == sorted(starts)

    def test_slot_pool_matches_slots(self, environment):
        pool = environment.slot_pool()
        assert len(pool) == len(environment.slots())

    def test_seed_reproducibility(self):
        config = EnvironmentConfig(node_count=20, seed=42)
        env_a = EnvironmentGenerator(config).generate()
        env_b = EnvironmentGenerator(config).generate()
        assert [n.price_per_unit for n in env_a.nodes] == [
            n.price_per_unit for n in env_b.nodes
        ]
        assert [
            t.busy_intervals for t in env_a.timelines.values()
        ] == [t.busy_intervals for t in env_b.timelines.values()]

    def test_different_seeds_differ(self):
        env_a = EnvironmentGenerator(EnvironmentConfig(node_count=20, seed=1)).generate()
        env_b = EnvironmentGenerator(EnvironmentConfig(node_count=20, seed=2)).generate()
        assert [n.price_per_unit for n in env_a.nodes] != [
            n.price_per_unit for n in env_b.nodes
        ]

    def test_successive_generations_are_fresh(self):
        generator = EnvironmentGenerator(EnvironmentConfig(node_count=20, seed=9))
        env_a = generator.generate()
        env_b = generator.generate()
        assert [n.price_per_unit for n in env_a.nodes] != [
            n.price_per_unit for n in env_b.nodes
        ]

    def test_commit_window_marks_timeline_busy(self, environment):
        pool = environment.slot_pool()
        slot = pool.ordered()[0]
        request = ResourceRequest(node_count=1, reservation_time=1.0)
        ws = WindowSlot.for_request(slot, request)
        window = Window(start=slot.start, slots=(ws,))
        environment.commit_window(window)
        timeline = environment.timelines[slot.node.node_id]
        assert not timeline.is_free(window.start, window.start + ws.required_time)

    def test_base_environment_publishes_paper_scale_slot_count(self):
        config = EnvironmentConfig(node_count=100, seed=11)
        counts = []
        generator = EnvironmentGenerator(config)
        for _ in range(10):
            counts.append(len(generator.generate().slots()))
        mean = float(np.mean(counts))
        # Paper's Table 2 reports 472.6 slots for the base environment.
        assert 380 <= mean <= 580


class TestSlotFiltering:
    @staticmethod
    def environment() -> Environment:
        """Node 0 leaves a gap of exactly ``TIME_EPSILON`` and one of 20,
        node 1 one of ``2 * TIME_EPSILON``."""
        nodes = [make_node(0), make_node(1)]
        timelines = {node.node_id: Timeline(node, 0.0, 100.0) for node in nodes}
        timelines[0].add_busy(TIME_EPSILON, 40.0)
        timelines[0].add_busy(60.0, 100.0)
        timelines[1].add_busy(2 * TIME_EPSILON, 100.0)
        return Environment(EnvironmentConfig(node_count=2), nodes, timelines)

    def test_min_length_filters_short_gaps(self):
        """Only the gaps that are slots — longer than ``TIME_EPSILON`` —
        are published."""
        slots = self.environment().slots()
        assert [(slot.node.node_id, slot.start, slot.end) for slot in slots] == [
            (1, 0.0, 2 * TIME_EPSILON),
            (0, 40.0, 60.0),
        ]

    def test_pool_min_length(self):
        environment = self.environment()
        assert environment.slot_pool().ordered() == environment.slots()
