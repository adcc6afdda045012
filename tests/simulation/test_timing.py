"""Unit tests for the working-time measurement harness."""

import pytest

from repro.environment import EnvironmentConfig
from repro.simulation import (
    ExperimentConfig,
    growth_exponent,
    measure_point,
    sweep_interval_lengths,
    sweep_node_counts,
)


def tiny_config():
    return ExperimentConfig(
        environment=EnvironmentConfig(node_count=20),
        node_count_requested=3,
        reservation_time=100.0,
        budget=900.0,
        cycles=1,
        seed=5,
    )


class TestMeasurePoint:
    def test_collects_all_algorithms(self):
        row = measure_point(tiny_config(), parameter=20.0, repetitions=2)
        assert set(row.algorithm_seconds) == {
            "AMP",
            "MinFinish",
            "MinCost",
            "MinRunTime",
            "MinProcTime",
        }
        for stat in row.algorithm_seconds.values():
            assert stat.count == 2
            assert stat.mean >= 0.0

    def test_csa_statistics(self):
        row = measure_point(tiny_config(), parameter=20.0, repetitions=2)
        assert row.csa_seconds.count == 2
        assert row.csa_sweep_seconds.count == 2
        assert row.csa_alternatives.mean >= 0.0
        assert row.csa_seconds_per_alternative >= 0.0

    def test_without_csa(self):
        row = measure_point(
            tiny_config(), parameter=20.0, repetitions=1, include_csa=False
        )
        assert row.csa_seconds.count == 0
        assert row.csa_sweep_seconds.count == 0
        assert row.csa_seconds_per_alternative == 0.0

    def test_mean_ms_conversion(self):
        row = measure_point(tiny_config(), parameter=20.0, repetitions=1)
        assert row.mean_ms("AMP") == pytest.approx(
            row.algorithm_seconds["AMP"].mean * 1e3
        )


class TestSweeps:
    def test_node_sweep_rows(self):
        study = sweep_node_counts(tiny_config(), [10, 20], repetitions=1)
        assert study.parameter_name == "node_count"
        assert [row.parameter for row in study.rows] == [10.0, 20.0]

    def test_interval_sweep_rows(self):
        study = sweep_interval_lengths(tiny_config(), [600.0, 1200.0], repetitions=1)
        assert [row.parameter for row in study.rows] == [600.0, 1200.0]
        assert study.row_for(600.0).slot_count.mean > 0

    def test_row_for_missing_raises(self):
        study = sweep_node_counts(tiny_config(), [10], repetitions=1)
        with pytest.raises(KeyError):
            study.row_for(999.0)

    def test_series_ms(self):
        study = sweep_node_counts(tiny_config(), [10, 20], repetitions=1)
        series = study.series_ms("AMP")
        assert len(series) == 2
        assert series[0][0] == 10.0

    def test_interval_sweep_increases_slot_count(self):
        study = sweep_interval_lengths(
            tiny_config(), [600.0, 2400.0], repetitions=3
        )
        short = study.row_for(600.0).slot_count.mean
        long = study.row_for(2400.0).slot_count.mean
        assert long > short


class TestGrowthExponent:
    def test_linear_series(self):
        series = [(1.0, 2.0), (2.0, 4.0), (4.0, 8.0)]
        assert growth_exponent(series) == pytest.approx(1.0)

    def test_quadratic_series(self):
        series = [(1.0, 3.0), (2.0, 12.0), (4.0, 48.0)]
        assert growth_exponent(series) == pytest.approx(2.0)

    def test_drops_nonpositive_points(self):
        series = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)]
        assert growth_exponent(series) == pytest.approx(1.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            growth_exponent([(1.0, 1.0)])
