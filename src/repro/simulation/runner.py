"""Multi-cycle comparison runner — the engine behind every study.

Runs the paper's base experiment for a configured number of cycles and
aggregates, per algorithm, the five reported window characteristics plus
the CSA alternative statistics.  All randomness flows from the experiment
seed, so results are exactly reproducible.

The 5000-cycle Monte-Carlo campaign of Section 3 is embarrassingly
parallel because the cycles are independent:
``np.random.SeedSequence(seed).spawn(cycles)`` gives every cycle its own
child stream, so cycle *k* is a pure function of the seed, and cycles
fan out in fixed-size chunks over a ``ProcessPoolExecutor`` (processes,
not threads — the scan kernel is pure Python and GIL-bound).  Workers
fold their chunk into compact partial accumulators
(:class:`~repro.simulation.metrics.WindowStats` et al., O(algorithms ×
criteria) floats) and the parent merges the partials in deterministic
chunk order, so **any worker count — including 1 and the no-subprocess
in-process mode — produces bit-identical aggregate statistics**.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.algorithms.base import SlotSelectionAlgorithm
from repro.core.criteria import Criterion
from repro.environment.generator import EnvironmentGenerator
from repro.model.errors import ConfigurationError
from repro.model.job import Job
from repro.simulation.config import ExperimentConfig
from repro.simulation.experiment import (
    CycleSummary,
    paper_algorithm_suite,
    run_cycle,
)
from repro.simulation.metrics import CsaStats, RunningStat, WindowStats

#: Cycles folded per worker task.  Fixed (never derived from the worker
#: count) because the chunk decomposition *is* the merge tree: identical
#: chunks merged in identical order is what makes aggregates bit-identical
#: across worker counts.
DEFAULT_CHUNK_SIZE = 16


@dataclass
class ComparisonResult:
    """Aggregated outcome of a multi-cycle comparison study."""

    config: ExperimentConfig
    algorithms: dict[str, WindowStats] = field(default_factory=dict)
    csa: CsaStats = field(default_factory=CsaStats)
    slot_count: RunningStat = field(default_factory=RunningStat)
    cycles_run: int = 0

    def mean_of(self, algorithm_name: str, criterion: Criterion) -> float:
        """Mean criterion value of one algorithm's selected windows."""
        return self.algorithms[algorithm_name].mean(criterion)

    def csa_mean_of(self, criterion: Criterion) -> float:
        """CSA's mean for ``criterion`` when selecting by that criterion."""
        return self.csa.diagonal(criterion)

    def all_means(self, criterion: Criterion) -> dict[str, float]:
        """Criterion means of every algorithm plus CSA's diagonal value."""
        means = {
            name: stats.mean(criterion) for name, stats in self.algorithms.items()
        }
        means["CSA"] = self.csa_mean_of(criterion)
        return means

    def ranking(self, criterion: Criterion) -> list[str]:
        """Algorithm names ordered best (smallest mean) first."""
        means = self.all_means(criterion)
        return sorted(means, key=means.__getitem__)


def run_spawned_cycle(
    config: ExperimentConfig,
    cycle_seed,
    algorithms: Optional[Sequence[SlotSelectionAlgorithm]] = None,
    *,
    include_csa: bool = True,
    validate: bool = False,
    job: Optional[Job] = None,
) -> CycleSummary:
    """One self-contained cycle of a spawned-stream study.

    Everything random — the environment and MinProcTime's selection —
    draws from a generator built from ``cycle_seed`` alone, so the
    summary is identical no matter which process runs the cycle when.
    """
    rng = np.random.default_rng(cycle_seed)
    generator = EnvironmentGenerator(config.environment, rng=rng)
    if algorithms is None:
        algorithms = paper_algorithm_suite(rng=rng)
    target_job = job if job is not None else config.base_job()
    outcome = run_cycle(
        generator, target_job, algorithms, include_csa=include_csa, validate=validate
    )
    return outcome.summary()


@dataclass
class _StudyContext:
    """Static per-study state, shipped to each worker process **once**.

    Everything a chunk needs that does not vary between chunks —
    configuration, the algorithm suite, flags, the job override — goes
    here and rides the ``ProcessPoolExecutor`` *initializer*, so it is
    pickled once per worker instead of once per task.  Tasks themselves
    shrink to ``(index, cycle_seeds)``.
    """

    config: ExperimentConfig
    algorithms: Optional[list[SlotSelectionAlgorithm]]
    algorithm_names: list[str]
    include_csa: bool
    validate: bool
    job: Optional[Job]


@dataclass
class _ChunkTask:
    """One worker task: a contiguous block of cycles of one study."""

    index: int
    cycle_seeds: list


#: The study context installed in this worker process (by
#: :func:`_install_study_context` via the executor initializer); the
#: parent's in-process path never touches it.
_study_context: Optional[_StudyContext] = None


def _install_study_context(context: _StudyContext) -> None:
    global _study_context
    _study_context = context


def _run_chunk_in_worker(task: _ChunkTask) -> "_ChunkResult":
    """Worker-side entry: fold a chunk against the installed context."""
    assert _study_context is not None, "executor initializer did not run"
    return _run_chunk(task, _study_context)


@dataclass
class _ChunkResult:
    """Partial accumulators of one chunk — O(algorithms × criteria) IPC."""

    index: int
    algorithms: dict[str, WindowStats]
    csa: CsaStats
    slot_count: RunningStat
    cycles: int


def _run_chunk(task: _ChunkTask, context: _StudyContext) -> _ChunkResult:
    """Fold one chunk's cycles into fresh partial accumulators.

    The exact code path of both the in-process mode and (through
    :func:`_run_chunk_in_worker`) the subprocess mode, which is what
    keeps the two modes bit-identical.
    """
    partial = _ChunkResult(
        index=task.index,
        algorithms={name: WindowStats() for name in context.algorithm_names},
        csa=CsaStats(),
        slot_count=RunningStat(),
        cycles=0,
    )
    for cycle_seed in task.cycle_seeds:
        summary = run_spawned_cycle(
            context.config,
            cycle_seed,
            context.algorithms,
            include_csa=context.include_csa,
            validate=context.validate,
            job=context.job,
        )
        _observe_summary(partial, summary, context.include_csa)
    return partial


def _observe_summary(
    partial: _ChunkResult, summary: CycleSummary, include_csa: bool
) -> None:
    for name, stats in partial.algorithms.items():
        stats.observe_metrics(summary.windows[name])
    if include_csa:
        partial.csa.observe_metrics(
            summary.csa_alternative_count, summary.csa_selections
        )
    partial.slot_count.add(float(summary.slot_count))
    partial.cycles += 1


def _chunk_tasks(config: ExperimentConfig, chunk_size: int) -> list[_ChunkTask]:
    cycle_seeds = config.spawn_cycle_seeds()
    return [
        _ChunkTask(index=index, cycle_seeds=cycle_seeds[begin : begin + chunk_size])
        for index, begin in enumerate(range(0, config.cycles, chunk_size))
    ]


def _merge_chunks(
    result: ComparisonResult, partials: Sequence[_ChunkResult], include_csa: bool
) -> ComparisonResult:
    """Merge partial accumulators in chunk order — the deterministic tree."""
    for partial in sorted(partials, key=lambda p: p.index):
        for name, stats in result.algorithms.items():
            stats.merge(partial.algorithms[name])
        if include_csa:
            result.csa.merge(partial.csa)
        result.slot_count.merge(partial.slot_count)
        result.cycles_run += partial.cycles
    return result


def run_comparison(
    config: ExperimentConfig,
    algorithms: Optional[Sequence[SlotSelectionAlgorithm]] = None,
    *,
    include_csa: bool = True,
    validate: bool = False,
    job: Optional[Job] = None,
    workers: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ComparisonResult:
    """Run ``config.cycles`` independent scheduling cycles and aggregate.

    Parameters
    ----------
    config:
        The study configuration (environment model, base job, cycle count,
        seed).
    algorithms:
        Algorithms to compare; the paper's suite by default.  The default
        suite is rebuilt per cycle around the cycle's own stream; an
        explicit list is reused as-is (and must be picklable
        when ``workers`` is set — avoid algorithms holding private RNGs,
        their state would depend on execution order).
    include_csa:
        Also run the CSA multi-alternative search each cycle (dominates the
        running time, exactly as in the paper).
    validate:
        Validate every returned window against the request (for tests).
    job:
        Override the predefined base job.
    workers:
        ``None`` or ``0`` — in-process, no subprocesses (the default).
        ``n >= 1`` — fan the chunks out over ``n`` worker processes.
        Aggregates are bit-identical for every
        value of ``workers``.
    chunk_size:
        Cycles per worker task.  Part of the deterministic merge tree: the
        same ``(seed, cycles, chunk_size)`` always yields bit-identical
        aggregates, while changing ``chunk_size`` may shift the last few
        ULPs (never the statistics).
    """
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if workers is not None and workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if algorithms is None:
        algorithm_names = [a.name for a in paper_algorithm_suite()]
    else:
        algorithm_names = [a.name for a in algorithms]
    context = _StudyContext(
        config=config,
        algorithms=list(algorithms) if algorithms is not None else None,
        algorithm_names=algorithm_names,
        include_csa=include_csa,
        validate=validate,
        job=job,
    )
    tasks = _chunk_tasks(config, chunk_size)
    result = ComparisonResult(config=config)
    for name in algorithm_names:
        result.algorithms[name] = WindowStats()

    if workers is None or workers == 0:
        partials = [_run_chunk(task, context) for task in tasks]
    else:
        # The static context rides the initializer — pickled once per
        # worker — so tasks on the wire are just (index, seeds).
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_install_study_context,
            initargs=(context,),
        ) as executor:
            partials = list(executor.map(_run_chunk_in_worker, tasks))
    return _merge_chunks(result, partials, include_csa)
