"""Experiment configuration mirroring Section 3.1 of the paper.

The base experiment: a fresh 100-node environment per cycle on the
scheduling interval [0, 600], and a single predefined job requesting the
co-allocation of 5 parallel slots for 150 (reference) time units with a
total budget of 1500 — "this value generally will not allow using the most
expensive (and usually the most efficient) CPU nodes".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.environment.generator import EnvironmentConfig
from repro.model.errors import ConfigurationError
from repro.model.job import Job, ResourceRequest

#: Paper values (Section 3.1).
PAPER_NODE_COUNT = 100
PAPER_INTERVAL_LENGTH = 600.0
PAPER_TASK_COUNT = 5
PAPER_RESERVATION_TIME = 150.0
PAPER_BUDGET = 1500.0
PAPER_FIGURE_CYCLES = 5000
PAPER_TABLE_CYCLES = 1000
PAPER_NODE_SWEEP = (50, 100, 200, 300, 400)
PAPER_INTERVAL_SWEEP = (600.0, 1200.0, 1800.0, 2400.0, 3000.0, 3600.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation study: environment model + the predefined base job."""

    environment: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    node_count_requested: int = PAPER_TASK_COUNT
    reservation_time: float = PAPER_RESERVATION_TIME
    budget: Optional[float] = PAPER_BUDGET
    cycles: int = PAPER_FIGURE_CYCLES
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.cycles < 1:
            raise ConfigurationError(f"cycles must be >= 1, got {self.cycles}")
        if self.node_count_requested < 1:
            raise ConfigurationError(
                f"node_count_requested must be >= 1, got {self.node_count_requested}"
            )
        if self.reservation_time <= 0:
            raise ConfigurationError(
                f"reservation_time must be positive, got {self.reservation_time}"
            )

    def base_request(self) -> ResourceRequest:
        """The predefined resource request of the experiments."""
        return ResourceRequest(
            node_count=self.node_count_requested,
            reservation_time=self.reservation_time,
            budget=self.budget,
        )

    def base_job(self) -> Job:
        """The single predefined job whose windows are being sought."""
        return Job(job_id="base-job", request=self.base_request())

    def with_cycles(self, cycles: int) -> "ExperimentConfig":
        """A copy with a different cycle count."""
        return replace(self, cycles=cycles)

    def spawn_cycle_seeds(self) -> list:
        """One independent ``SeedSequence`` child per cycle.

        Spawning happens once, in the parent, so the per-cycle streams are
        a pure function of ``seed`` — identical no matter which process
        runs which cycle in which order.
        """
        import numpy as np

        return np.random.SeedSequence(self.seed).spawn(self.cycles)

    def with_node_count(self, node_count: int) -> "ExperimentConfig":
        """A copy scaling the environment's node count (Table 1 sweep)."""
        return replace(self, environment=self.environment.with_node_count(node_count))

    def with_interval_length(self, length: float) -> "ExperimentConfig":
        """A copy scaling the scheduling interval (Table 2 sweep)."""
        return replace(
            self, environment=self.environment.with_interval_length(length)
        )


def paper_base_config(cycles: int = PAPER_FIGURE_CYCLES, seed: Optional[int] = 2013) -> ExperimentConfig:
    """The Section 3.1 base configuration, reproducibly seeded."""
    return ExperimentConfig(
        environment=EnvironmentConfig(
            node_count=PAPER_NODE_COUNT,
            interval_start=0.0,
            interval_end=PAPER_INTERVAL_LENGTH,
        ),
        node_count_requested=PAPER_TASK_COUNT,
        reservation_time=PAPER_RESERVATION_TIME,
        budget=PAPER_BUDGET,
        cycles=cycles,
        seed=seed,
    )
