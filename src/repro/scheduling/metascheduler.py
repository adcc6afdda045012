"""The hierarchical metascheduler: a full two-phase scheduling cycle.

This is our concretization of the VO scheduling scheme the paper builds on
(its references [6, 7]): a metascheduler receives the slot sets published
by local resource managers, and during each cycle (1) searches alternative
windows for every batch job in priority order, then (2) selects one
alternative per job by a VO-level criterion, and commits the chosen
windows back onto the node timelines.

The paper itself evaluates phase 1 in isolation; the metascheduler exists
so the library is usable end-to-end (and so the examples can demonstrate
batch-level behaviour).  Where reference [6] leaves details open, the
choices made here are documented inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.algorithms.base import SlotSelectionAlgorithm
from repro.core.algorithms.csa import CSA
from repro.core.criteria import Criterion
from repro.environment.generator import Environment
from repro.model.errors import SchedulingError
from repro.model.job import Job, JobBatch
from repro.model.slotpool import SlotPool
from repro.model.window import Window
from repro.scheduling.combination import CombinationChoice, greedy_combination


@dataclass(frozen=True)
class CycleReport:
    """Everything that happened during one scheduling cycle."""

    choice: CombinationChoice
    alternatives_found: dict[str, int]
    jobs: tuple[Job, ...] = ()

    @property
    def scheduled(self) -> dict[str, Window]:
        """Job id -> chosen window."""
        return self.choice.assignments

    @property
    def unscheduled(self) -> tuple[str, ...]:
        """Ids of jobs deferred this cycle."""
        return self.choice.unscheduled

    def summary(self) -> dict[str, float]:
        """Cycle-level aggregates for logging and tests."""
        return {
            "scheduled_jobs": float(self.choice.scheduled_count),
            "unscheduled_jobs": float(len(self.choice.unscheduled)),
            "total_cost": self.choice.total_cost(),
            "makespan": self.choice.makespan(),
            "alternatives_total": float(sum(self.alternatives_found.values())),
        }

    def fairness(self):
        """Per-owner service report for this cycle (lazy import)."""
        from repro.analysis.fairness import fairness_of_assignments

        return fairness_of_assignments(self.jobs, self.choice.assignments)


@dataclass
class BatchScheduler:
    """Two-phase batch scheduler over one environment.

    Parameters
    ----------
    search:
        Phase-one algorithm.  CSA by default (the general scheme); any
        single-window AEP algorithm also works — it simply contributes one
        alternative per job.
    criterion:
        Phase-two selection criterion (VO policy).
    vo_budget:
        Optional cap on the combined cost of the chosen windows.
    alternatives_per_job:
        Optional cap passed to the phase-one search.

    Phase one searches every job on the same published pool and lets
    phase two resolve conflicts between their alternatives.
    """

    search: SlotSelectionAlgorithm = field(default_factory=CSA)
    criterion: Criterion = Criterion.COST
    vo_budget: Optional[float] = None
    alternatives_per_job: Optional[int] = None

    def find_alternatives(
        self, batch: JobBatch, pool: SlotPool
    ) -> dict[str, list[Window]]:
        """Phase one: alternative windows per job, priority order.

        Every job is searched against the same published pool, so jobs
        with equal requests would recompute the identical search; the
        batch is routed through
        :meth:`~repro.core.algorithms.base.SlotSelectionAlgorithm.find_alternatives_batch`,
        which runs one search per request class (decisions are identical
        to the per-job loop).
        """
        jobs = list(batch)
        found = self.search.find_alternatives_batch(
            jobs, pool, limit=self.alternatives_per_job
        )
        return {job.job_id: windows for job, windows in zip(jobs, found)}

    def choose_combination(
        self, batch: JobBatch, alternatives: dict[str, list[Window]]
    ) -> CombinationChoice:
        """Phase two: one alternative per job under the VO policy."""
        jobs: Sequence[Job] = batch.by_priority()
        return greedy_combination(jobs, alternatives, self.criterion, self.vo_budget)

    def plan(
        self,
        batch: JobBatch,
        pool: SlotPool,
        alternatives: Optional[dict[str, list[Window]]] = None,
    ) -> CycleReport:
        """Phases one and two on an explicit pool, without committing.

        This is the cycle kernel shared by :meth:`run_cycle` and by service
        contexts (the broker service) that own their pool, run phase one
        on their own snapshot of it, and commit under their own locking
        discipline.  Pass ``alternatives`` to reuse precomputed
        phase-one results; otherwise phase one runs here.
        """
        if alternatives is None:
            alternatives = self.find_alternatives(batch, pool)
        choice = self.choose_combination(batch, alternatives)
        return CycleReport(
            choice=choice,
            alternatives_found={
                job_id: len(windows) for job_id, windows in alternatives.items()
            },
            jobs=tuple(batch.by_priority()),
        )

    def run_cycle(self, batch: JobBatch, environment: Environment) -> CycleReport:
        """One full scheduling cycle: search, select, commit.

        Chosen windows are committed onto the environment's node timelines,
        so a subsequent cycle (with newly arrived jobs) sees the residual
        free time only.
        """
        report = self.plan(batch, environment.slot_pool())
        for job_id, window in report.scheduled.items():
            try:
                environment.commit_window(window)
            except Exception as error:  # pragma: no cover - defensive
                raise SchedulingError(
                    f"committing window for job {job_id} failed: {error}"
                ) from error
        return report
