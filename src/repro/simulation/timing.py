"""Working-time measurement — the engine behind Tables 1-2 and Figs. 5-6.

Measures, on freshly generated environments, the wall-clock time each
algorithm spends selecting a window, exactly as the paper does: "1000
separate experiments were simulated for each value" of the swept parameter
(CPU node count for Table 1, scheduling-interval length for Table 2).  CSA
additionally reports its alternatives count and the per-alternative time.
The CSA row times the scheme the paper describes — AMP re-run on a pool
that is cut between runs (:func:`~repro.core.algorithms.csa.rerun_alternatives`)
— because that is what Tables 1-2 make a claim about; the one-sweep kernel
``CSA.find_alternatives`` actually serves the same windows from is timed
beside it (``csa_sweep_seconds``).
Absolute milliseconds are hardware-dependent; the benchmarks compare growth
*trends* against the paper's complexity claims.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.core.algorithms.base import SlotSelectionAlgorithm
from repro.core.algorithms.amp import AMP
from repro.core.algorithms.csa import CSA, rerun_alternatives
from repro.model.job import Job
from repro.simulation.config import ExperimentConfig
from repro.simulation.experiment import make_generator, paper_algorithm_suite
from repro.simulation.metrics import RunningStat


@dataclass
class TimingRow:
    """Timing aggregates for one swept parameter value."""

    parameter: float
    slot_count: RunningStat = field(default_factory=RunningStat)
    csa_alternatives: RunningStat = field(default_factory=RunningStat)
    #: The paper's scheme: AMP re-run from slot 0 after every cut.
    csa_seconds: RunningStat = field(default_factory=RunningStat)
    #: The same windows from ``CSA.find_alternatives``' one sweep.
    csa_sweep_seconds: RunningStat = field(default_factory=RunningStat)
    algorithm_seconds: dict[str, RunningStat] = field(default_factory=dict)

    @property
    def csa_seconds_per_alternative(self) -> float:
        """Mean CSA time divided by its mean alternative count."""
        if self.csa_alternatives.mean == 0:
            return 0.0
        return self.csa_seconds.mean / self.csa_alternatives.mean

    def mean_ms(self, algorithm_name: str) -> float:
        """Mean selection time of one algorithm in milliseconds."""
        return self.algorithm_seconds[algorithm_name].mean * 1e3


@dataclass
class TimingStudy:
    """Results of a full sweep: one :class:`TimingRow` per parameter value."""

    parameter_name: str
    rows: list[TimingRow] = field(default_factory=list)

    def row_for(self, parameter: float) -> TimingRow:
        """The row measured at one swept parameter value."""
        for row in self.rows:
            if row.parameter == parameter:
                return row
        raise KeyError(f"no timing row for {self.parameter_name}={parameter}")

    def series_ms(self, algorithm_name: str) -> list[tuple[float, float]]:
        """(parameter, mean milliseconds) series for one algorithm."""
        return [(row.parameter, row.mean_ms(algorithm_name)) for row in self.rows]


def _measure(callable_, *args) -> tuple[float, object]:
    begin = time.perf_counter()
    result = callable_(*args)
    return time.perf_counter() - begin, result


def measure_point(
    config: ExperimentConfig,
    parameter: float,
    repetitions: int,
    algorithms: Optional[Sequence[SlotSelectionAlgorithm]] = None,
    *,
    include_csa: bool = True,
    job: Optional[Job] = None,
) -> TimingRow:
    """Timing aggregates for one swept value over ``repetitions`` cycles."""
    generator = make_generator(config)
    if algorithms is None:
        algorithms = paper_algorithm_suite(rng=generator.rng)
    target_job = job if job is not None else config.base_job()
    row = TimingRow(parameter=parameter)
    for algorithm in algorithms:
        row.algorithm_seconds[algorithm.name] = RunningStat()
    csa = CSA()
    amp = AMP()
    for _ in range(repetitions):
        environment = generator.generate()
        pool = environment.slot_pool()
        row.slot_count.add(float(len(pool)))
        for algorithm in algorithms:
            elapsed, _ = _measure(algorithm.select, target_job, pool)
            row.algorithm_seconds[algorithm.name].add(elapsed)
        if include_csa:
            elapsed, alternatives = _measure(rerun_alternatives, amp, target_job, pool)
            row.csa_seconds.add(elapsed)
            row.csa_alternatives.add(float(len(alternatives)))
            elapsed, _ = _measure(csa.find_alternatives, target_job, pool)
            row.csa_sweep_seconds.add(elapsed)
    return row


def sweep_node_counts(
    base: ExperimentConfig,
    node_counts: Sequence[int],
    repetitions: int,
    **kwargs,
) -> TimingStudy:
    """The Table 1 sweep: working time vs number of CPU nodes."""
    study = TimingStudy(parameter_name="node_count")
    for node_count in node_counts:
        config = base.with_node_count(node_count)
        study.rows.append(measure_point(config, float(node_count), repetitions, **kwargs))
    return study


def sweep_interval_lengths(
    base: ExperimentConfig,
    lengths: Sequence[float],
    repetitions: int,
    **kwargs,
) -> TimingStudy:
    """The Table 2 sweep: working time vs scheduling-interval length."""
    study = TimingStudy(parameter_name="interval_length")
    for length in lengths:
        config = base.with_interval_length(length)
        study.rows.append(measure_point(config, float(length), repetitions, **kwargs))
    return study


def growth_exponent(series: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(parameter).

    An empirical complexity order: ~1 for linear growth, ~2 for quadratic.
    Points with non-positive time (possible at very small scales) are
    dropped.
    """
    xs, ys = [], []
    for parameter, value in series:
        if parameter > 0 and value > 0:
            xs.append(np.log(parameter))
            ys.append(np.log(value))
    if len(xs) < 2:
        raise ValueError("growth_exponent needs at least two positive points")
    slope, _ = np.polyfit(np.array(xs), np.array(ys), 1)
    return float(slope)
