"""Single-cycle experiment driver.

"Since the purpose of the considered algorithms is to allocate suitable
alternatives, it makes sense to make the simulation apart from the whole
general scheduling scheme: the search will be performed for a single
predefined job" on a freshly generated environment each cycle
(Section 3.1).  This module runs exactly that: one environment, one job,
every algorithm on the same slot pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.algorithms import AMP, CSA, MinCost, MinFinish, MinProcTime, MinRunTime
from repro.core.algorithms.base import SlotSelectionAlgorithm
from repro.core.criteria import Criterion
from repro.environment.generator import Environment, EnvironmentGenerator
from repro.model.job import Job
from repro.model.slotpool import SlotPool
from repro.model.window import Window
from repro.simulation.config import ExperimentConfig
from repro.simulation.metrics import csa_selection_metrics, window_metrics


def paper_algorithm_suite(
    rng: Optional[np.random.Generator] = None,
) -> list[SlotSelectionAlgorithm]:
    """The five single-window algorithms evaluated in Section 3.

    CSA is handled separately by the runner because it contributes one
    selection per criterion rather than a single window.
    """
    return [
        AMP(),
        MinFinish(),
        MinCost(),
        MinRunTime(),
        MinProcTime(rng=rng),
    ]


@dataclass(frozen=True)
class CycleSummary:
    """Compact per-cycle metric record — everything aggregation needs.

    A :class:`CycleOutcome` retains the full :class:`Environment` (every
    node timeline) and every selected :class:`Window`; accumulating
    thousands of them is pure memory drag, and shipping them between
    processes is O(nodes) IPC per cycle.  The summary keeps only the
    evaluated criterion values — O(algorithms × criteria) floats — which
    is all the streaming accumulators consume.
    """

    windows: dict[str, Optional[dict[Criterion, float]]]
    csa_alternative_count: int
    csa_selections: dict[Criterion, Optional[dict[Criterion, float]]]
    slot_count: int


@dataclass(frozen=True)
class CycleOutcome:
    """Results of one simulated scheduling cycle."""

    windows: dict[str, Optional[Window]]
    csa_alternatives: list[Window]
    slot_count: int
    environment: Environment

    def window_of(self, algorithm_name: str) -> Optional[Window]:
        """The named algorithm's window this cycle (or ``None``)."""
        return self.windows.get(algorithm_name)

    def summary(self) -> CycleSummary:
        """This cycle as a compact record, dropping the environment.

        The multi-cycle runner accumulates summaries by default so a
        5000-cycle study never holds more than one environment alive.
        """
        return CycleSummary(
            windows={
                name: window_metrics(window) for name, window in self.windows.items()
            },
            csa_alternative_count=len(self.csa_alternatives),
            csa_selections=csa_selection_metrics(self.csa_alternatives),
            slot_count=self.slot_count,
        )


def run_cycle(
    generator: EnvironmentGenerator,
    job: Job,
    algorithms: Sequence[SlotSelectionAlgorithm],
    *,
    include_csa: bool = True,
    validate: bool = False,
) -> CycleOutcome:
    """Generate one environment and run every algorithm on its slot pool.

    Every algorithm sees the *same* pool (selection never mutates it), so
    the per-cycle results are directly comparable.  With ``validate=True``
    each returned window is checked against the request's invariants —
    slow, but invaluable in tests.
    """
    environment = generator.generate()
    pool: SlotPool = environment.slot_pool()
    windows: dict[str, Optional[Window]] = {}
    for algorithm in algorithms:
        window = algorithm.select(job, pool)
        if validate and window is not None:
            window.validate(job.request)
        windows[algorithm.name] = window
    csa_alternatives: list[Window] = []
    if include_csa:
        csa = CSA(criterion=Criterion.START_TIME)
        csa_alternatives = csa.find_alternatives(job, pool)
        if validate:
            for window in csa_alternatives:
                window.validate(job.request)
    return CycleOutcome(
        windows=windows,
        csa_alternatives=csa_alternatives,
        slot_count=len(pool),
        environment=environment,
    )


def make_generator(config: ExperimentConfig) -> EnvironmentGenerator:
    """An environment generator seeded from the experiment config.

    The experiment seed (not the environment seed) drives the stream so a
    single config value controls the whole study's reproducibility.
    """
    rng = np.random.default_rng(config.seed)
    return EnvironmentGenerator(config.environment, rng=rng)
