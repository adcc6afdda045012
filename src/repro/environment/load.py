"""Initial (non-dedicated) load generation.

Nodes are non-dedicated: at the start of a scheduling cycle a fraction of
each node's interval is already occupied by local and high-priority jobs.
Section 3.1 fixes the generative model:

* the load level of each node is drawn from a hypergeometric distribution
  mapped onto [10%, 50%];
* local tasks have a minimum length (10 model time units in the paper —
  the value that explains why ``MinFinish`` can still start at t = 0).

The generator decomposes a node's interval into an alternating sequence of
busy chunks and free gaps whose totals match the drawn load level exactly,
then randomizes the arrangement.  The number of local jobs is proportional
to the busy time (one job per ``mean_job_length`` on average), so longer
scheduling intervals carry proportionally more local jobs and publish
proportionally more slots — the linear slot-count growth of the paper's
Table 2.  The free gaps become the slots offered to the metascheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.environment.distributions import hypergeometric_fraction, partition_total
from repro.model.errors import ConfigurationError
from repro.model.resource import CpuNode
from repro.model.timeline import Timeline

#: Paper values (Section 3.1).
DEFAULT_LOAD_RANGE = (0.10, 0.50)
DEFAULT_MIN_LOCAL_JOB_LENGTH = 10.0
#: Average local-job length.  Calibrated so that a 100-node environment on
#: [0, 600] publishes roughly 470 slots (the paper's Table 2 reports 472.6)
#: and the count grows linearly with the interval length.
DEFAULT_MEAN_LOCAL_JOB_LENGTH = 42.0


@dataclass(frozen=True)
class LoadModel:
    """Configuration of the initial-load generator."""

    load_range: tuple[float, float] = DEFAULT_LOAD_RANGE
    min_job_length: float = DEFAULT_MIN_LOCAL_JOB_LENGTH
    mean_job_length: float = DEFAULT_MEAN_LOCAL_JOB_LENGTH

    def __post_init__(self) -> None:
        low, high = self.load_range
        if not 0.0 <= low <= high < 1.0:
            raise ConfigurationError(f"invalid load range {self.load_range}")
        if self.min_job_length <= 0:
            raise ConfigurationError(
                f"min_job_length must be positive, got {self.min_job_length}"
            )
        if self.mean_job_length < self.min_job_length:
            raise ConfigurationError(
                f"mean_job_length ({self.mean_job_length}) must be >= "
                f"min_job_length ({self.min_job_length})"
            )

    def draw_load_level(self, rng: np.random.Generator) -> float:
        """The node's initial utilization, hypergeometric over the range."""
        low, high = self.load_range
        return hypergeometric_fraction(rng, low, high)

    def draw_job_count(self, busy_total: float, rng: np.random.Generator) -> int:
        """Number of local jobs: ~``busy_total / mean_job_length`` ± 1."""
        upper = int(busy_total // self.min_job_length)
        if upper < 1:
            return 0
        expected = busy_total / self.mean_job_length
        jitter = int(rng.integers(-1, 2))
        return min(max(round(expected) + jitter, 1), upper)

    def populate(self, timeline: Timeline, rng: np.random.Generator) -> float:
        """Fill a node timeline with local jobs; returns the load level used.

        The decomposition is exact: busy chunks sum to ``level * interval``
        and the interleaved free gaps to the complement, so the generated
        utilization equals the drawn level (up to float rounding).  Busy
        chunks respect the minimum local job length; free gaps may have any
        positive length (gaps shorter than a task are simply never selected
        by the window search).
        """
        interval = timeline.interval_end - timeline.interval_start
        level = self.draw_load_level(rng)
        busy_total = level * interval
        job_count = self.draw_job_count(busy_total, rng)
        if job_count == 0:
            # Load level too small for even one minimal local job: the node
            # stays empty this cycle.
            return 0.0
        busy_chunks = partition_total(rng, busy_total, job_count, self.min_job_length)

        free_total = interval - busy_total
        gap_count = job_count + 1
        gaps = partition_total(rng, free_total, gap_count, 0.0)
        # A node may start or end with a busy chunk: zero out the first
        # and/or last gap with probability proportional to the busy share.
        if rng.random() < level:
            gaps[-1] += gaps[0]
            gaps[0] = 0.0
        if rng.random() < level:
            gaps[0] += gaps[-1]
            gaps[-1] = 0.0

        cursor = timeline.interval_start
        for index, chunk in enumerate(busy_chunks):
            cursor += gaps[index]
            timeline.add_busy(cursor, min(cursor + chunk, timeline.interval_end))
            cursor += chunk
        return level


def build_timeline(
    node: CpuNode,
    interval_start: float,
    interval_end: float,
    model: LoadModel,
    rng: np.random.Generator,
) -> Timeline:
    """Convenience helper: a freshly loaded timeline for one node."""
    timeline = Timeline(node, interval_start, interval_end)
    model.populate(timeline, rng)
    return timeline
