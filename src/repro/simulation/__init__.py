"""Simulation harness reproducing the studies of Section 3."""

from repro.simulation.config import (
    PAPER_BUDGET,
    PAPER_FIGURE_CYCLES,
    PAPER_INTERVAL_LENGTH,
    PAPER_INTERVAL_SWEEP,
    PAPER_NODE_COUNT,
    PAPER_NODE_SWEEP,
    PAPER_RESERVATION_TIME,
    PAPER_TABLE_CYCLES,
    PAPER_TASK_COUNT,
    ExperimentConfig,
    paper_base_config,
)
from repro.simulation.experiment import (
    CycleOutcome,
    CycleSummary,
    make_generator,
    paper_algorithm_suite,
    run_cycle,
)
from repro.simulation.jobgen import JobGenerator, JobGeneratorConfig
from repro.simulation.metrics import (
    REPORTED_CRITERIA,
    CsaStats,
    RunningStat,
    WindowStats,
)
from repro.simulation.runner import (
    DEFAULT_CHUNK_SIZE,
    ComparisonResult,
    run_comparison,
    run_spawned_cycle,
)
from repro.simulation.timing import (
    TimingRow,
    TimingStudy,
    growth_exponent,
    measure_point,
    sweep_interval_lengths,
    sweep_node_counts,
)

__all__ = [
    "ComparisonResult",
    "CsaStats",
    "CycleOutcome",
    "CycleSummary",
    "DEFAULT_CHUNK_SIZE",
    "ExperimentConfig",
    "JobGenerator",
    "JobGeneratorConfig",
    "growth_exponent",
    "make_generator",
    "measure_point",
    "paper_algorithm_suite",
    "paper_base_config",
    "PAPER_BUDGET",
    "PAPER_FIGURE_CYCLES",
    "PAPER_INTERVAL_LENGTH",
    "PAPER_INTERVAL_SWEEP",
    "PAPER_NODE_COUNT",
    "PAPER_NODE_SWEEP",
    "PAPER_RESERVATION_TIME",
    "PAPER_TABLE_CYCLES",
    "PAPER_TASK_COUNT",
    "REPORTED_CRITERIA",
    "run_comparison",
    "run_cycle",
    "run_spawned_cycle",
    "RunningStat",
    "sweep_interval_lengths",
    "sweep_node_counts",
    "TimingRow",
    "TimingStudy",
    "WindowStats",
]
