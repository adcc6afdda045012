"""Common interface of all slot-selection algorithms."""

from __future__ import annotations

import abc
from typing import Optional, Union

from repro.model.job import Job, ResourceRequest
from repro.model.slotpool import SlotPool
from repro.model.window import Window

JobLike = Union[Job, ResourceRequest]


class SlotSelectionAlgorithm(abc.ABC):
    """A strategy that selects co-allocation windows from a slot pool.

    Concrete algorithms differ in the criterion they optimize and in
    whether they produce a single window (the AEP family) or a list of
    disjoint alternatives (CSA).  ``select`` never mutates the pool;
    callers decide when to commit a window via
    :meth:`repro.model.SlotPool.cut_window`.
    """

    #: Short name used in tables, figures and logs.
    name: str = "abstract"

    #: Whether ``select``/``find_alternatives`` is a pure function of the
    #: (request, pool) pair.  Stochastic algorithms (the randomized
    #: MinProcTime) set this ``False``, which disables request-class
    #: grouping in :meth:`find_alternatives_batch`: sharing one result
    #: across equal requests would consume the random stream differently
    #: than the sequential per-job loop does.
    deterministic: bool = True

    @abc.abstractmethod
    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """The best window for ``job`` by this algorithm's criterion.

        Returns ``None`` when the pool holds no feasible window.
        """

    def find_alternatives(
        self, job: JobLike, pool: SlotPool, limit: Optional[int] = None
    ) -> list[Window]:
        """Alternative windows for ``job`` (disjoint where applicable).

        The default implementation returns the single ``select`` result;
        CSA overrides this with the multi-alternative search.
        """
        window = self.select(job, pool)
        if window is None:
            return []
        return [window]

    def find_alternatives_batch(
        self,
        jobs: list[JobLike],
        pool: SlotPool,
        limit: Optional[int] = None,
    ) -> list[list[Window]]:
        """Alternatives for a whole cycle batch, one search per request class.

        Jobs whose requests compare equal receive one
        :meth:`find_alternatives` run and share its windows (each job
        gets its own shallow list copy; the Window objects are shared).
        Sharing is decision-safe downstream because a window conflicts
        with itself, so phase 2 can never assign a shared window twice.
        The result is element-for-element identical to calling
        :meth:`find_alternatives` per job — grouping only removes
        redundant recomputation, never changes a decision.
        """
        job_list = list(jobs)
        if not job_list:
            return []
        if not self.deterministic:
            # Per-job dispatch preserves the random stream consumption.
            return [self.find_alternatives(job, pool, limit) for job in job_list]
        from repro.core.aep import request_of
        from repro.core.vectorized import scan_counters

        groups: dict[ResourceRequest, list[int]] = {}
        for index, job in enumerate(job_list):
            groups.setdefault(request_of(job), []).append(index)
        scan_counters["grouped_jobs"] += len(job_list)
        scan_counters["grouped_classes"] += len(groups)
        scan_counters["grouped_shared"] += len(job_list) - len(groups)
        out: list[list[Window]] = [[] for _ in job_list]
        for members in groups.values():
            windows = self.find_alternatives(job_list[members[0]], pool, limit)
            out[members[0]] = windows
            for index in members[1:]:
                out[index] = list(windows)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
