"""The zero-copy phase-one fan-out: one shared snapshot per cycle, a
persistent executor on the broker, and — above all — determinism: the
alternatives must be identical inline, with a transient pool, and with a
caller-supplied persistent executor."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.algorithms.csa import CSA
from repro.core.algorithms.minproctime import MinProcTime
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import Job, ResourceRequest
from repro.scheduling import BatchScheduler
from repro.service import (
    BrokerService,
    CollectingSink,
    ServiceConfig,
    deterministic_trace,
)
from repro.service.parallel import parallel_find_alternatives


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


def fingerprint(alternatives):
    return {
        job_id: [
            (window.start, tuple(sorted(window.nodes())))
            for window in windows
        ]
        for job_id, windows in alternatives.items()
    }


class TestSharedSnapshotFanOut:
    def test_identical_across_execution_modes(self):
        pool = make_pool()
        jobs = make_jobs()
        search = CSA(max_alternatives=5)
        inline = parallel_find_alternatives(search, jobs, pool, workers=1, limit=5)
        transient = parallel_find_alternatives(search, jobs, pool, workers=4, limit=5)
        with ThreadPoolExecutor(max_workers=4) as executor:
            persistent = parallel_find_alternatives(
                search, jobs, pool, workers=4, limit=5, executor=executor
            )
        assert fingerprint(inline) == fingerprint(transient) == fingerprint(persistent)

    def test_pool_unchanged_by_fan_out(self):
        pool = make_pool()
        before = [(slot.node.node_id, slot.start, slot.end) for slot in pool]
        parallel_find_alternatives(
            CSA(max_alternatives=3), make_jobs(4), pool, workers=4, limit=3
        )
        after = [(slot.node.node_id, slot.start, slot.end) for slot in pool]
        assert before == after

    def test_result_keyed_in_job_order(self):
        pool = make_pool()
        jobs = make_jobs(5)
        result = parallel_find_alternatives(
            CSA(max_alternatives=2), jobs, pool, workers=3, limit=2
        )
        assert list(result) == [job.job_id for job in jobs]


class TestPersistentBrokerExecutor:
    def test_executor_reused_across_cycles(self):
        service = BrokerService(
            make_pool(), config=ServiceConfig(workers=4, batch_size=2, max_wait=5.0)
        )
        assert service._executor is None  # lazy until the first parallel cycle
        for index, job in enumerate(make_jobs(8)):
            service.advance_to(float(index))
            service.submit(job)
            service.pump()
        first = service._executor
        assert first is not None
        service.drain()
        assert service._executor is first  # same pool across all cycles
        service.close()
        assert service._executor is None
        service.close()  # idempotent

    def test_inline_broker_never_builds_executor(self):
        service = BrokerService(
            make_pool(), config=ServiceConfig(workers=1, batch_size=2, max_wait=5.0)
        )
        for index, job in enumerate(make_jobs(6)):
            service.advance_to(float(index))
            service.submit(job)
            service.pump()
        service.drain()
        assert service._executor is None
        service.close()

    def test_context_manager_closes(self):
        with BrokerService(
            make_pool(), config=ServiceConfig(workers=2, batch_size=1, max_wait=5.0)
        ) as service:
            service.submit(make_jobs(1)[0])
            service.pump()
            service.drain()
            assert service._executor is not None
        assert service._executor is None

    def test_worker_count_invariance_end_to_end(self):
        jobs = make_jobs(10)

        def run(workers: int, search):
            sink = CollectingSink()
            config = ServiceConfig(
                workers=workers, batch_size=3, max_wait=5.0, record_assignments=True
            )
            service = BrokerService(
                make_pool(),
                config=config,
                scheduler=BatchScheduler(
                    search=search,
                    criterion=config.criterion,
                    alternatives_per_job=config.alternatives_per_job,
                ),
                sinks=[sink],
            )
            for index, job in enumerate(jobs):
                service.advance_to(float(index))
                service.submit(job)
                service.pump()
            service.drain()
            service.close()
            assert service.assignments
            assignments = {
                job_id: (window.start, tuple(sorted(window.nodes())))
                for job_id, window in service.assignments.items()
            }
            return assignments, deterministic_trace(sink.events)

        # CSA fans out; the seeded randomized search must not (one
        # random stream, drawn in job order).
        for make_search in (
            lambda: CSA(max_alternatives=10),
            lambda: MinProcTime(simplified=True, rng=np.random.default_rng(42)),
        ):
            assert run(1, make_search()) == run(4, make_search())


class TestClassGroupedFanOut:
    """Request-class grouping is a pure optimization: every worker count
    must produce the mapping of one search per job, and the grouping
    telemetry must record the sharing."""

    def test_grouped_matches_per_job_across_modes(self):
        pool = make_pool()
        jobs = make_jobs(10)  # two request classes, five duplicates each
        search = CSA(max_alternatives=4)
        per_job = {
            job.job_id: search.find_alternatives(job, pool.copy(), 4) for job in jobs
        }
        reference = fingerprint(per_job)
        for workers in (1, 4):
            grouped = parallel_find_alternatives(
                search, jobs, pool, workers=workers, limit=4
            )
            assert fingerprint(grouped) == reference, workers

    def test_grouping_counters_record_sharing(self):
        from repro.core.vectorized import scan_counters

        pool = make_pool()
        jobs = make_jobs(10)
        before = dict(scan_counters)
        parallel_find_alternatives(
            CSA(max_alternatives=3), jobs, pool, workers=4, limit=3
        )
        assert scan_counters["grouped_jobs"] - before["grouped_jobs"] == 10
        assert scan_counters["grouped_classes"] - before["grouped_classes"] == 2
        assert scan_counters["grouped_shared"] - before["grouped_shared"] == 8

    def test_duplicate_jobs_receive_independent_lists(self):
        pool = make_pool()
        jobs = make_jobs(4)
        result = parallel_find_alternatives(
            CSA(max_alternatives=3), jobs, pool, workers=2, limit=3
        )
        # jobs 0 and 2 share a request class; their lists are equal but
        # not the same object, so a caller may mutate one safely.
        first, third = result[jobs[0].job_id], result[jobs[2].job_id]
        assert first == third
        assert first is not third

    def test_nondeterministic_search_dispatched_per_job(self):
        pool = make_pool()
        jobs = make_jobs(6)  # duplicate request classes
        limit = 3

        def seeded():
            return MinProcTime(simplified=True, rng=np.random.default_rng(42))

        assert seeded().deterministic is False
        # The randomized search consumes one shared random stream, in
        # job order: grouping would draw fewer times than a sequential
        # loop and worker threads would race on the generator.  Whatever
        # ``workers`` says, the result must be the one-search-per-job
        # loop of a same-seeded instance.
        search = seeded()
        per_job = {
            job.job_id: search.find_alternatives(job, pool.copy(), limit)
            for job in jobs
        }
        for workers in (1, 4):
            found = parallel_find_alternatives(
                seeded(), jobs, pool, workers=workers, limit=limit
            )
            assert fingerprint(found) == fingerprint(per_job), workers
