"""Unit tests for the non-dedicated initial-load generator."""

import numpy as np
import pytest

from repro.environment import LoadModel, build_timeline
from repro.model import ConfigurationError, Timeline
from tests.conftest import make_node


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestValidation:
    def test_rejects_bad_range(self):
        with pytest.raises(ConfigurationError):
            LoadModel(load_range=(0.5, 0.1))
        with pytest.raises(ConfigurationError):
            LoadModel(load_range=(-0.1, 0.5))
        with pytest.raises(ConfigurationError):
            LoadModel(load_range=(0.1, 1.0))

    def test_rejects_nonpositive_job_length(self):
        with pytest.raises(ConfigurationError):
            LoadModel(min_job_length=0.0)

    def test_rejects_mean_below_min_job_length(self):
        with pytest.raises(ConfigurationError):
            LoadModel(min_job_length=20.0, mean_job_length=10.0)


class TestDrawLoadLevel:
    def test_levels_within_paper_range(self, rng):
        model = LoadModel()
        for _ in range(300):
            assert 0.10 <= model.draw_load_level(rng) <= 0.50

    def test_mean_near_midpoint(self, rng):
        model = LoadModel()
        levels = [model.draw_load_level(rng) for _ in range(2000)]
        assert np.mean(levels) == pytest.approx(0.30, abs=0.01)


class TestPopulate:
    def test_utilization_matches_drawn_level(self, rng):
        model = LoadModel()
        for _ in range(50):
            timeline = Timeline(make_node(0), 0.0, 600.0)
            level = model.populate(timeline, rng)
            assert timeline.utilization() == pytest.approx(level, abs=1e-6)

    def test_local_jobs_respect_min_length(self, rng):
        model = LoadModel(min_job_length=10.0)
        for _ in range(50):
            timeline = Timeline(make_node(0), 0.0, 600.0)
            model.populate(timeline, rng)
            for start, end in timeline.busy_intervals:
                # Merged chunks can only be longer than the minimum.
                assert end - start >= 10.0 - 1e-9

    def test_busy_stays_inside_interval(self, rng):
        model = LoadModel()
        for _ in range(50):
            timeline = Timeline(make_node(0), 100.0, 700.0)
            model.populate(timeline, rng)
            for start, end in timeline.busy_intervals:
                assert start >= 100.0 - 1e-9
                assert end <= 700.0 + 1e-9

    def test_tiny_interval_can_stay_empty(self, rng):
        # Load level * interval below one minimal local job -> node unloaded.
        model = LoadModel(min_job_length=10.0)
        timeline = Timeline(make_node(0), 0.0, 15.0)
        level = model.populate(timeline, rng)
        assert level == 0.0 or timeline.busy_time() >= 10.0

    def test_job_count_scales_with_busy_time(self, rng):
        model = LoadModel(mean_job_length=40.0)
        assert model.draw_job_count(5.0, rng) == 0  # below one minimal job
        counts_small = [model.draw_job_count(80.0, rng) for _ in range(200)]
        counts_large = [model.draw_job_count(800.0, rng) for _ in range(200)]
        assert np.mean(counts_large) > 3 * np.mean(counts_small)
        assert min(counts_small) >= 1

    def test_job_count_capped_by_min_length(self, rng):
        model = LoadModel(min_job_length=10.0, mean_job_length=10.0)
        for _ in range(100):
            count = model.draw_job_count(35.0, rng)
            assert 1 <= count <= 3

    def test_longer_interval_publishes_more_slots(self, rng):
        model = LoadModel()

        def mean_slots(length):
            totals = []
            for _ in range(60):
                timeline = Timeline(make_node(0), 0.0, length)
                model.populate(timeline, rng)
                totals.append(len(timeline.free_slots()))
            return np.mean(totals)

        assert mean_slots(2400.0) > 2.5 * mean_slots(600.0)

    def test_build_timeline_helper(self, rng):
        timeline = build_timeline(make_node(3), 0.0, 600.0, LoadModel(), rng)
        assert timeline.node.node_id == 3
        assert 0.05 <= timeline.utilization() <= 0.55

    def test_free_gaps_form_several_slots(self, rng):
        model = LoadModel()
        slot_counts = []
        for _ in range(100):
            timeline = Timeline(make_node(0), 0.0, 600.0)
            model.populate(timeline, rng)
            slot_counts.append(len(timeline.free_slots()))
        # Calibration target: about 4-5 free slots per node on average,
        # so that a 100-node environment publishes ~470 slots (Table 2).
        assert 3.5 <= np.mean(slot_counts) <= 6.5
