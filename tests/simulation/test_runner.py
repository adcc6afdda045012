"""Unit tests for the comparison runner and the single-cycle driver."""

import pytest

from repro.core import AMP, Criterion, MinCost
from repro.simulation import (
    ExperimentConfig,
    make_generator,
    paper_algorithm_suite,
    paper_base_config,
    run_comparison,
    run_cycle,
)
from repro.environment import EnvironmentConfig


def small_config(cycles=5, seed=3):
    return ExperimentConfig(
        environment=EnvironmentConfig(node_count=30),
        node_count_requested=3,
        reservation_time=100.0,
        budget=900.0,
        cycles=cycles,
        seed=seed,
    )


class TestRunCycle:
    def test_runs_all_algorithms_on_same_pool(self):
        config = small_config()
        generator = make_generator(config)
        outcome = run_cycle(
            generator, config.base_job(), [AMP(), MinCost()], include_csa=False
        )
        assert set(outcome.windows) == {"AMP", "MinCost"}
        assert outcome.slot_count > 0

    def test_csa_alternatives_collected(self):
        config = small_config()
        generator = make_generator(config)
        outcome = run_cycle(generator, config.base_job(), [AMP()])
        assert isinstance(outcome.csa_alternatives, list)

    def test_validate_flag(self):
        config = small_config()
        generator = make_generator(config)
        run_cycle(generator, config.base_job(), [AMP(), MinCost()], validate=True)

    def test_window_of(self):
        config = small_config()
        generator = make_generator(config)
        outcome = run_cycle(generator, config.base_job(), [AMP()], include_csa=False)
        assert outcome.window_of("AMP") is outcome.windows["AMP"]
        assert outcome.window_of("nope") is None


class TestPaperSuite:
    def test_contains_the_five_algorithms(self):
        names = {algorithm.name for algorithm in paper_algorithm_suite()}
        assert names == {"AMP", "MinFinish", "MinCost", "MinRunTime", "MinProcTime"}


class TestRunComparison:
    def test_aggregates_every_algorithm(self):
        result = run_comparison(small_config(), include_csa=False)
        assert result.cycles_run == 5
        for name in ("AMP", "MinFinish", "MinCost", "MinRunTime", "MinProcTime"):
            assert result.algorithms[name].attempts == 5

    def test_reproducible_with_seed(self):
        a = run_comparison(small_config(seed=11), include_csa=False)
        b = run_comparison(small_config(seed=11), include_csa=False)
        for name in a.algorithms:
            assert a.algorithms[name].mean(Criterion.COST) == pytest.approx(
                b.algorithms[name].mean(Criterion.COST)
            )

    def test_different_seeds_differ(self):
        a = run_comparison(small_config(seed=11), include_csa=False)
        b = run_comparison(small_config(seed=12), include_csa=False)
        assert a.algorithms["AMP"].mean(Criterion.COST) != pytest.approx(
            b.algorithms["AMP"].mean(Criterion.COST)
        )

    def test_csa_stats_populated(self):
        result = run_comparison(small_config())
        assert result.csa.alternatives.count == 5
        assert result.csa.alternatives.mean > 0

    def test_all_means_includes_csa(self):
        result = run_comparison(small_config())
        means = result.all_means(Criterion.COST)
        assert "CSA" in means
        assert set(means) >= {"AMP", "MinCost", "CSA"}

    def test_ranking_sorted_by_mean(self):
        result = run_comparison(small_config())
        ranking = result.ranking(Criterion.COST)
        means = result.all_means(Criterion.COST)
        assert ranking == sorted(means, key=means.__getitem__)

    def test_mincost_wins_cost_ranking(self):
        result = run_comparison(small_config(cycles=10))
        assert result.ranking(Criterion.COST)[0] == "MinCost"

    def test_custom_algorithm_list(self):
        result = run_comparison(
            small_config(), algorithms=[MinCost()], include_csa=False
        )
        assert list(result.algorithms) == ["MinCost"]

    def test_custom_job_override(self):
        config = small_config()
        from repro.model import Job, ResourceRequest

        tiny = Job("tiny", ResourceRequest(node_count=1, reservation_time=10.0))
        result = run_comparison(
            config, algorithms=[AMP()], include_csa=False, job=tiny
        )
        assert result.algorithms["AMP"].find_rate == 1.0


class TestStreamDiscipline:
    """RNG stream guarantees of the process-parallel engine."""

    def test_spawned_cycles_are_order_independent(self):
        config = small_config(cycles=6, seed=19)
        seeds = config.spawn_cycle_seeds()
        from repro.simulation import run_spawned_cycle

        forward = [run_spawned_cycle(config, seed) for seed in seeds]
        backward = [run_spawned_cycle(config, seed) for seed in reversed(seeds)]
        assert forward == list(reversed(backward))

    def test_aggregates_bit_identical_across_worker_counts(self):
        from repro.simulation.bench import result_fingerprint

        config = small_config(cycles=8, seed=23)
        fingerprints = {
            workers: result_fingerprint(run_comparison(config, workers=workers))
            for workers in (None, 1, 2)
        }
        assert len(set(fingerprints.values())) == 1

    def test_chunk_size_changes_merge_tree_not_statistics(self):
        config = small_config(cycles=9, seed=37)
        # The chunk decomposition is the merge tree: worker counts share
        # it (hence bit-identical aggregates), but a different chunk size
        # is a different summation order — statistically identical, equal
        # only to float tolerance.
        a = run_comparison(config, chunk_size=2)
        b = run_comparison(config, chunk_size=16)
        for name in a.algorithms:
            assert a.algorithms[name].attempts == b.algorithms[name].attempts
            for criterion in Criterion:
                assert a.algorithms[name].mean(criterion) == pytest.approx(
                    b.algorithms[name].mean(criterion), rel=1e-12
                )
