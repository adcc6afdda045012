"""Phase one over a whole batch: every job searched in parallel — each
against the same published pool snapshot, never against another job's
cuts — with jobs of equal requests sharing one search.

``BatchScheduler.find_alternatives`` is the one phase-one path; the
broker's cycle calls it on a copy of its pool.  Sharing is a pure
optimization: every mode must return the mapping of one search per job,
keyed in priority order, leave the pool untouched, and record the
sharing in the grouping telemetry."""

from __future__ import annotations

import numpy as np

from repro.core.algorithms.csa import CSA
from repro.core.algorithms.minfinish import MinFinish
from repro.core.algorithms.minproctime import MinProcTime
from repro.core.vectorized import scan_counters
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import Job, JobBatch, ResourceRequest
from repro.scheduling import BatchScheduler
from repro.service import BrokerService, ServiceConfig


def make_pool(node_count: int = 30, seed: int = 5):
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=node_count, seed=seed)
    ).generate()
    return environment.slot_pool()


def make_jobs(count: int = 8) -> list[Job]:
    return [
        Job(
            f"job-{index}",
            ResourceRequest(
                node_count=2 + index % 2, reservation_time=20.0, budget=2000.0
            ),
        )
        for index in range(count)
    ]


def batch_of(jobs) -> JobBatch:
    return JobBatch(list(jobs))


def fingerprint(alternatives):
    return {
        job_id: [
            (window.start, tuple(sorted(window.nodes())))
            for window in windows
        ]
        for job_id, windows in alternatives.items()
    }


def per_job(search, jobs, pool, limit):
    """The reference: one search per job, each on its own pool copy."""
    return {
        job.job_id: search.find_alternatives(job, pool.copy(), limit)
        for job in jobs
    }


class TestSharedSnapshotFanOut:
    def test_identical_across_execution_modes(self):
        # The grouped batch search, the per-job loop and the broker's
        # phase one (on its own pool snapshot) find the same windows.
        jobs = make_jobs()
        search = CSA(max_alternatives=5)
        scheduler = BatchScheduler(search=search, alternatives_per_job=5)
        grouped = scheduler.find_alternatives(batch_of(jobs), make_pool())
        reference = per_job(search, jobs, make_pool(), 5)
        service = BrokerService(
            make_pool(),
            config=ServiceConfig(alternatives_per_job=5),
            scheduler=scheduler,
        )
        seen = []
        original = scheduler.find_alternatives

        def recording(batch, pool):
            found = original(batch, pool)
            seen.append(found)
            return found

        scheduler.find_alternatives = recording
        for job in jobs:
            service.submit(job)
        service.pump()
        assert len(seen) == 1
        assert fingerprint(grouped) == fingerprint(reference) == fingerprint(seen[0])

    def test_pool_unchanged_by_fan_out(self):
        pool = make_pool()
        before = [(slot.node.node_id, slot.start, slot.end) for slot in pool]
        generation = pool.generation
        BatchScheduler(
            search=CSA(max_alternatives=3), alternatives_per_job=3
        ).find_alternatives(batch_of(make_jobs(4)), pool)
        after = [(slot.node.node_id, slot.start, slot.end) for slot in pool]
        assert before == after
        assert pool.generation == generation

    def test_result_keyed_in_job_order(self):
        # Keys follow the batch's processing order: descending priority,
        # submission order among equals.
        jobs = [
            Job(job.job_id, job.request, priority=priority)
            for job, priority in zip(make_jobs(5), (0, 2, 1, 2, 0))
        ]
        result = BatchScheduler(
            search=CSA(max_alternatives=2), alternatives_per_job=2
        ).find_alternatives(batch_of(jobs), make_pool())
        assert list(result) == ["job-1", "job-3", "job-2", "job-0", "job-4"]


class TestClassGroupedFanOut:
    """Request-class grouping is a pure optimization: every search kind
    must produce the mapping of one search per job, and the grouping
    telemetry must record the sharing."""

    def test_grouped_matches_per_job_across_modes(self):
        # CSA takes the generic per-class dispatch, MinFinish the batched
        # scan kernel; both must match the one-search-per-job loop.
        jobs = make_jobs(10)  # two request classes, five duplicates each
        for search in (CSA(max_alternatives=4), MinFinish()):
            grouped = BatchScheduler(
                search=search, alternatives_per_job=4
            ).find_alternatives(batch_of(jobs), make_pool())
            reference = per_job(search, jobs, make_pool(), 4)
            assert fingerprint(grouped) == fingerprint(reference), search.name

    def test_grouping_counters_record_sharing(self):
        jobs = make_jobs(10)
        before = dict(scan_counters)
        BatchScheduler(
            search=CSA(max_alternatives=3), alternatives_per_job=3
        ).find_alternatives(batch_of(jobs), make_pool())
        assert scan_counters["grouped_jobs"] - before["grouped_jobs"] == 10
        assert scan_counters["grouped_classes"] - before["grouped_classes"] == 2
        assert scan_counters["grouped_shared"] - before["grouped_shared"] == 8

        # The broker's own telemetry records the same sharing.
        service = BrokerService(
            make_pool(), config=ServiceConfig(batch_size=10, alternatives_per_job=3)
        )
        for job in jobs:
            service.submit(job)
        assert service.pump() == 1
        grouping = service.stats.snapshot()["phase1_grouping"]
        assert grouping == {"jobs": 10, "classes": 2, "shared": 8}

    def test_duplicate_jobs_receive_independent_lists(self):
        jobs = make_jobs(4)
        result = BatchScheduler(
            search=CSA(max_alternatives=3), alternatives_per_job=3
        ).find_alternatives(batch_of(jobs), make_pool())
        # jobs 0 and 2 share a request class; their lists are equal but
        # not the same object, so a caller may mutate one safely.
        first, third = result[jobs[0].job_id], result[jobs[2].job_id]
        assert first == third
        assert first is not third

    def test_nondeterministic_search_dispatched_per_job(self):
        jobs = make_jobs(6)  # duplicate request classes
        limit = 3

        def seeded():
            return MinProcTime(simplified=True, rng=np.random.default_rng(42))

        assert seeded().deterministic is False
        # The randomized search consumes one shared random stream, in
        # job order: grouping would draw fewer times than a sequential
        # loop.  The result must be the one-search-per-job loop of a
        # same-seeded instance.
        reference = per_job(seeded(), jobs, make_pool(), limit)
        scheduler = BatchScheduler(search=seeded(), alternatives_per_job=limit)
        found = scheduler.find_alternatives(batch_of(jobs), make_pool())
        assert fingerprint(found) == fingerprint(reference)
