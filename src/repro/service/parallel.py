"""Parallel phase one: window search fanned out across the batch.

Phase one is embarrassingly parallel — each job's alternative search
reads the pool and writes nothing (``select`` never mutates, and CSA
copies internally before cutting) — so the broker takes **one**
read-only snapshot of the pool per cycle and, with ``workers > 1``, fans
the searches out over it on a thread pool whose workers share the
snapshot object.  That single snapshot replaces the per-job
``SlotPool.copy()`` the first service version took: with hundreds of
jobs per cycle those copies dominated the cycle's allocation churn while
providing no isolation the read-only discipline did not already
guarantee.  Results are merged back in job order, so the output is
*identical* for any worker count: parallelism changes wall-clock time,
never assignments.

The unit of fan-out is the *request class*, not the job: jobs whose
requests compare equal are grouped before submission, one search task
runs per class, and every member of the class receives the class result
(later members get shallow list copies; sharing windows is decision-safe
because a window conflicts with itself, so phase 2 can never assign one
twice).

Only deterministic searches (``search.deterministic``) are grouped or
fanned out.  A stochastic search draws from one random stream, in job
order: sharing a result would skip draws and worker threads would race
on the generator, so it runs the inline per-job loop whatever
``workers`` says.
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from typing import Optional, Sequence

from repro.core.aep import request_of
from repro.core.algorithms.base import SlotSelectionAlgorithm
from repro.core.vectorized import scan_counters
from repro.model.job import Job, ResourceRequest
from repro.model.slotpool import SlotPool
from repro.model.window import Window


def _class_members(jobs: Sequence[Job]) -> list[list[int]]:
    """Job indices grouped by request equality, in first-appearance order."""
    groups: dict[ResourceRequest, list[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(request_of(job), []).append(index)
    return list(groups.values())


def parallel_find_alternatives(
    search: SlotSelectionAlgorithm,
    jobs: Sequence[Job],
    pool: SlotPool,
    workers: int = 1,
    limit: Optional[int] = None,
    executor: Optional[Executor] = None,
) -> dict[str, list[Window]]:
    """Phase-one alternatives per job, searched on a shared pool snapshot.

    Every job is searched against the same frozen view of ``pool`` as
    published at the start of the cycle (the non-consuming discipline of
    :class:`~repro.scheduling.BatchScheduler`), so job order carries no
    information and the searches are independent.  With ``workers <= 1``
    — or a stochastic search (``search.deterministic == False``), which
    must consume its random stream in job order — the loop runs inline;
    every path returns the same mapping, keyed in ``jobs`` order.

    Jobs of equal requests share one search — see the module docstring;
    the result is identical to searching every job on its own.

    ``executor`` optionally supplies a persistent thread pool (the
    broker keeps one for its lifetime); when omitted and ``workers > 1``
    a transient one is created for the call.
    """
    # Duck-typed: test doubles and third-party searches may predate the
    # grouping protocol, in which case they get the per-job loop.
    deterministic = getattr(search, "deterministic", False)
    batch_search = getattr(search, "find_alternatives_batch", None)
    snapshot = pool.copy()
    if workers <= 1 or len(jobs) <= 1 or not deterministic:
        if deterministic and batch_search is not None:
            found = batch_search(list(jobs), snapshot, limit=limit)
            return {job.job_id: windows for job, windows in zip(jobs, found)}
        return {
            job.job_id: search.find_alternatives(job, snapshot, limit=limit)
            for job in jobs
        }
    member_lists = _class_members(jobs)
    scan_counters["grouped_jobs"] += len(jobs)
    scan_counters["grouped_classes"] += len(member_lists)
    scan_counters["grouped_shared"] += len(jobs) - len(member_lists)
    # A caller's persistent pool outlives the call; a transient one does not.
    owned = (
        ThreadPoolExecutor(max_workers=workers)
        if executor is None
        else nullcontext(executor)
    )
    with owned as running:
        futures = [
            running.submit(search.find_alternatives, jobs[members[0]], snapshot, limit)
            for members in member_lists
        ]
        windows_by_index: dict[int, list[Window]] = {}
        for members, future in zip(member_lists, futures):
            windows = future.result()
            windows_by_index[members[0]] = windows
            for index in members[1:]:
                windows_by_index[index] = list(windows)
    # Keyed in ``jobs`` order, exactly like the inline path.
    return {job.job_id: windows_by_index[index] for index, job in enumerate(jobs)}
