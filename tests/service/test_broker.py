"""End-to-end broker service behaviour, including the acceptance run.

The headline checks: a 500-job streaming run completes with the pool's
per-node disjointness verified after *every* cycle, every retired job's
reservations come back through :meth:`SlotPool.release`, and phase one's
grouped batch search (one search per request class) produces assignments
identical to the one-search-per-job loop at the same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms.csa import CSA
from repro.core.algorithms.minproctime import MinProcTime
from repro.core.vectorized import scan_counters
from repro.environment import (
    EnvironmentConfig,
    EnvironmentGenerator,
    HorizonConfig,
    RollingHorizonSource,
)
from repro.model import Job, ResourceRequest, SlotPool
from repro.model.errors import ConfigurationError, SchedulingError
from repro.model.slotarrays import SlotColumnStore
from repro.scheduling.combination import CombinationChoice
from repro.scheduling.metascheduler import BatchScheduler, CycleReport
from repro.service import (
    BrokerService,
    CollectingSink,
    EventType,
    RejectionReason,
    ServiceConfig,
    TraceConfig,
    TraceValidator,
    build_service,
    run_service_trace,
)
from repro.simulation.jobgen import JobGenerator

from tests.strategies import EDGE_OF_COMMIT
from tests.test_window_invariants import assert_window_invariants


def make_pool(node_count: int = 40, seed: int = 11):
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=node_count, seed=seed)
    ).generate()
    return environment.slot_pool()


def make_job(job_id: str, nodes: int = 2, budget: float = 2000.0) -> Job:
    return Job(
        job_id,
        ResourceRequest(node_count=nodes, reservation_time=20.0, budget=budget),
    )


class NeverScheduler:
    """Cycle kernel stub that schedules nothing: every job defers."""

    #: Not a pure function of the pool: the broker counts one search
    #: per job.
    search = MinProcTime()

    def find_alternatives(self, batch, pool):
        return {job.job_id: [] for job in batch}

    def plan(self, batch, pool, alternatives=None):
        jobs = tuple(batch.by_priority())
        return CycleReport(
            choice=CombinationChoice(
                assignments={},
                total_value=0.0,
                unscheduled=tuple(job.job_id for job in jobs),
            ),
            alternatives_found={job.job_id: 0 for job in jobs},
            jobs=jobs,
        )


@pytest.mark.parametrize(
    "field",
    [
        {"queue_capacity": 0},
        {"batch_size": 0},
        {"max_wait": 0.0},
        {"workers": 2},
        {"max_deferrals": -1},
        {"alternatives_per_job": 0},
        {"completion_factor": 1.5},
        {"completion_factor": 0.0},
    ],
)
def test_service_config_rejects_out_of_range_values(field):
    with pytest.raises(ConfigurationError):
        ServiceConfig(**field)


class PerJobCSA(CSA):
    """CSA flagged stochastic: phase one searches it once per job."""

    deterministic = False


class TestPhaseOneGroupingTelemetry:
    """``phase1_grouping`` counts the searches phase one really shared."""

    def run_cycle(self, search) -> dict:
        config = ServiceConfig(batch_size=6)
        service = BrokerService(
            make_pool(),
            config=config,
            scheduler=BatchScheduler(
                search=search,
                criterion=config.criterion,
                alternatives_per_job=config.alternatives_per_job,
            ),
        )
        before = scan_counters["grouped_shared"]
        for index in range(6):
            service.submit(make_job(f"j{index}"))
        assert service.pump() == 1
        grouping = service.stats.snapshot()["phase1_grouping"]
        grouping["grouped_shared"] = scan_counters["grouped_shared"] - before
        return grouping

    def test_grouped_search_shares_equal_requests(self):
        grouping = self.run_cycle(CSA(max_alternatives=10))
        assert grouping == {
            "jobs": 6, "classes": 1, "shared": 5, "grouped_shared": 5
        }

    def test_stochastic_search_shares_nothing(self):
        # Six equal requests, but a seeded search runs once per job.
        grouping = self.run_cycle(
            MinProcTime(simplified=True, rng=np.random.default_rng(3))
        )
        assert grouping == {
            "jobs": 6, "classes": 6, "shared": 0, "grouped_shared": 0
        }


class TestSubmitAndCycle:
    def test_submit_admits_and_queues(self):
        service = BrokerService(make_pool())
        assert service.submit(make_job("a"))
        assert service.queue_depth == 1
        assert service.stats.admitted == 1

    def test_duplicate_submission_rejected(self):
        service = BrokerService(make_pool())
        service.submit(make_job("a"))
        decision = service.submit(make_job("a"))
        assert decision.reason is RejectionReason.DUPLICATE_ID
        assert service.stats.rejected == 1

    def test_batch_size_triggers_a_cycle_on_pump(self):
        config = ServiceConfig(batch_size=3, record_assignments=True)
        service = BrokerService(make_pool(), config=config)
        for index in range(3):
            service.submit(make_job(f"j{index}"))
        assert service.pump() == 1
        assert service.queue_depth == 0
        assert service.stats.scheduled == 3
        assert service.active_count == 3

    def test_max_wait_deadline_fires_at_exact_time(self):
        config = ServiceConfig(batch_size=100, max_wait=10.0)
        service = BrokerService(make_pool(), config=config)
        service.advance_to(5.0)
        service.submit(make_job("slow"))
        # a coarse jump far past the deadline still fires the cycle at 15
        service.advance_to(200.0)
        assert service.stats.cycles == 1
        assert service.stats.scheduled == 1

    def test_clock_is_monotone(self):
        service = BrokerService(make_pool(), clock_start=10.0)
        with pytest.raises(SchedulingError, match="monotone"):
            service.advance_to(5.0)

    def test_committed_windows_satisfy_invariants(self):
        config = ServiceConfig(batch_size=4, record_assignments=True)
        service = BrokerService(make_pool(), config=config)
        jobs = {f"j{index}": make_job(f"j{index}") for index in range(4)}
        for job in jobs.values():
            service.submit(job)
        service.pump()
        assert service.assignments
        for job_id, window in service.assignments.items():
            assert_window_invariants(window, jobs[job_id].request)

    def test_drain_completes_and_releases_everything(self):
        service = BrokerService(make_pool())
        for index in range(5):
            service.submit(make_job(f"j{index}"))
        service.drain()
        assert service.queue_depth == 0
        assert service.active_count == 0
        assert service.stats.retired == service.stats.scheduled == 5


class TestAcceptanceRun:
    """The 500-job streaming acceptance criteria of this subsystem."""

    JOBS = 500

    def run_trace(self, service=None, **service_kwargs):
        config = TraceConfig(
            jobs=self.JOBS,
            rate=2.0,
            node_count=50,
            seed=7,
            service=ServiceConfig(record_assignments=True, **service_kwargs),
        )
        return run_service_trace(config, service=service)

    def test_streaming_run_is_leak_free(self):
        outcome = self.run_trace(check_invariants=True)
        service = outcome.service
        # check_invariants=True already verified per-node disjointness
        # after every cycle; assert the bookkeeping balanced out too.
        stats = service.stats
        assert stats.submitted == self.JOBS
        assert stats.admitted == stats.submitted - stats.rejected
        assert stats.scheduled == stats.retired + service.active_count
        assert stats.admitted == stats.scheduled + stats.dropped
        assert service.queue_depth == 0
        assert service.active_count == 0
        service.pool.assert_disjoint_per_node()

    def test_every_retirement_goes_through_release(self):
        config = TraceConfig(
            jobs=120,
            rate=2.0,
            node_count=40,
            seed=3,
            service=ServiceConfig(record_assignments=True),
        )
        service = build_service(config)
        releases = []
        original_release = service.pool.release

        def counting_release(window, *args, **kwargs):
            releases.append(window)
            return original_release(window, *args, **kwargs)

        service.pool.release = counting_release
        run_service_trace(config, service=service)
        assert service.stats.retired == service.stats.scheduled
        assert len(releases) == service.stats.retired
        assert service.active_count == 0

    def test_parallel_search_matches_sequential(self):
        # Phase one searches the batch's jobs independently, on one
        # snapshot, sharing one search per request class; a search that
        # never groups runs the plain per-job loop.  Same decisions.
        parallel = self.run_trace().service
        config = ServiceConfig(record_assignments=True)
        per_job = BrokerService(
            make_pool(50, 7),
            config=config,
            scheduler=BatchScheduler(
                search=PerJobCSA(max_alternatives=config.alternatives_per_job),
                criterion=config.criterion,
                alternatives_per_job=config.alternatives_per_job,
            ),
        )
        sequential = self.run_trace(service=per_job).service
        assert sequential.stats.phase1_classes == sequential.stats.phase1_jobs
        assert sequential.stats.scheduled == parallel.stats.scheduled
        assert sequential.stats.rejected == parallel.stats.rejected
        assert sequential.stats.dropped == parallel.stats.dropped
        assert sequential.stats.cycles == parallel.stats.cycles
        assert set(sequential.assignments) == set(parallel.assignments)
        for job_id, window in sequential.assignments.items():
            assert repr(parallel.assignments[job_id]) == repr(window), job_id


class TestDeferralAccounting:
    """The queue-full deferral regression: no admitted job may vanish."""

    def test_queue_full_deferral_counts_as_dropped(self):
        # Shrink the live queue bound below the in-flight batch size:
        # the only way a deferral re-push can meet a full queue, since a
        # cycle never re-queues more jobs than it popped.  Pre-fix, the
        # ignored push() return made the overflow jobs vanish without
        # touching any counter; post-fix they are dropped{queue_full}.
        collector = CollectingSink()
        validator = TraceValidator()
        service = BrokerService(
            make_pool(),
            config=ServiceConfig(
                batch_size=4, queue_capacity=4, max_deferrals=10
            ),
            scheduler=NeverScheduler(),
            sinks=[collector, validator],
        )
        for index in range(4):
            assert service.submit(make_job(f"j{index}"))
        service._queue.capacity = 1  # operator shrinks the bound mid-flight
        assert service.pump() == 1
        stats = service.stats
        assert stats.deferred == 1
        assert stats.dropped == 3
        assert service.queue_depth == 1
        # the conservation law the bug used to break:
        assert stats.admitted == stats.scheduled + stats.dropped + service.queue_depth
        drops = [e for e in collector.events if e.type is EventType.DROPPED]
        assert [event.fields["cause"] for event in drops] == ["queue_full"] * 3
        validator.check(expect_drained=False)

    def test_max_deferrals_drop_is_traced(self):
        collector = CollectingSink()
        service = BrokerService(
            make_pool(),
            config=ServiceConfig(batch_size=2, max_deferrals=1, max_wait=5.0),
            scheduler=NeverScheduler(),
            sinks=[collector],
        )
        service.submit(make_job("a"))
        service.submit(make_job("b"))
        service.drain()
        assert service.stats.dropped == 2
        drops = [e for e in collector.events if e.type is EventType.DROPPED]
        assert {event.job_id for event in drops} == {"a", "b"}
        assert all(e.fields["cause"] == "max_deferrals" for e in drops)

    def test_each_deferral_ages_the_job_by_one_priority_step(self):
        seen: list[dict[str, int]] = []

        class Recording(NeverScheduler):
            def plan(self, batch, pool, alternatives=None):
                seen.append({job.job_id: job.priority for job in batch.jobs})
                return super().plan(batch, pool, alternatives)

        service = BrokerService(
            make_pool(),
            config=ServiceConfig(batch_size=8, max_deferrals=2, max_wait=5.0),
            scheduler=Recording(),
        )
        service.submit(Job("old", make_job("old").request, priority=3))
        service.advance_to(5.0)  # cycle 0: "old" defers
        service.submit(Job("new", make_job("new").request, priority=3))
        service.drain()
        assert seen == [
            {"old": 3},
            {"old": 4, "new": 3},
            {"old": 5, "new": 4},
            {"new": 5},
        ]

    def test_deferral_repush_keeps_enqueue_times_nondecreasing(self):
        # the invariant behind the O(1) oldest-item peek, exercised
        # through real deferral re-pushes interleaved with arrivals
        service = BrokerService(
            make_pool(),
            config=ServiceConfig(batch_size=2, max_deferrals=8, max_wait=10.0),
            scheduler=NeverScheduler(),
        )
        for index, time in enumerate((0.0, 1.0, 3.0, 7.0, 12.0, 20.0)):
            service.advance_to(time)
            service.submit(make_job(f"j{index}"))
            service.pump()
            enqueue_times = [
                item.enqueued_at for item in service._queue._items
            ]
            assert enqueue_times == sorted(enqueue_times)
            if service._queue.depth:
                assert (
                    service._queue.oldest_enqueued_at() == enqueue_times[0]
                )


class TestEarlyCompletion:
    def test_completion_factor_frees_capacity_sooner(self):
        full = run_service_trace(
            TraceConfig(
                jobs=80,
                node_count=30,
                seed=5,
                service=ServiceConfig(completion_factor=1.0),
            )
        )
        early = run_service_trace(
            TraceConfig(
                jobs=80,
                node_count=30,
                seed=5,
                service=ServiceConfig(completion_factor=0.5),
            )
        )
        assert early.service.stats.retired == early.service.stats.scheduled
        # early finishes can only help (or match) the schedule rate
        assert early.service.stats.scheduled >= full.service.stats.scheduled


class TestOneTrimPerCycle:
    """Clock steps between cycles only raise the pool's floor: arrivals
    trim nothing and rewrite no column, and each cycle trims once, to its
    own clock.  Counted on the one trim and the one column writer."""

    @staticmethod
    def count(monkeypatch) -> dict[str, list]:
        calls: dict[str, list] = {"trim": [], "catch_up": []}
        trim, catch_up = SlotPool.trim_before, SlotColumnStore._catch_up

        def counted_trim(pool, time):
            calls["trim"].append(time)
            return trim(pool, time)

        def counted_catch_up(store):
            calls["catch_up"].append(store.generation)
            return catch_up(store)

        monkeypatch.setattr(SlotPool, "trim_before", counted_trim)
        monkeypatch.setattr(SlotColumnStore, "_catch_up", counted_catch_up)
        return calls

    def test_arrivals_between_cycles_trim_nothing(self, monkeypatch):
        service = BrokerService(
            SlotPool(),
            config=ServiceConfig(batch_size=4, max_wait=1000.0),
            horizon_source=RollingHorizonSource(
                EnvironmentConfig(node_count=30, seed=5),
                HorizonConfig(lead=600.0, stride=600.0),
            ),
        )
        # The first step publishes the second horizon segment and the
        # first admission reads the pool: both before counting starts.
        service.advance_to(1.0)
        assert service.submit(make_job("j0"))
        calls = self.count(monkeypatch)
        for index, at in enumerate((2.0, 3.5, 5.0), start=1):
            assert service.advance_to(at) == 0
            assert calls == {"trim": [], "catch_up": []}
            assert service.submit(make_job(f"j{index}"))
            if index < 3:
                assert calls == {"trim": [], "catch_up": []}
        # The fourth job fills the batch; its submit trims nothing.
        assert calls["trim"] == []
        assert service.queue_depth == 4
        assert service.pump() == 1
        assert calls["trim"] == [5.0]
        assert service.stats.scheduled == 4

    def test_retirements_between_cycles_trim_nothing(self, monkeypatch):
        """A Poisson stream whose jobs retire at clock steps between
        cycles: each retirement releases its window through the floor
        its step raised and trims nothing, so the pool trims once per
        cycle."""
        collector = CollectingSink()
        service = BrokerService(
            SlotPool(),
            config=ServiceConfig(batch_size=4, max_wait=1000.0),
            horizon_source=RollingHorizonSource(
                EnvironmentConfig(node_count=30, seed=5),
                HorizonConfig(lead=600.0, stride=600.0),
            ),
            sinks=[collector],
        )
        arrivals = JobGenerator(seed=3).iter_arrivals(80, rate=0.5)
        # The first arrival's admission reads the fresh pool before
        # counting starts, as in the test above.
        at, job = next(arrivals)
        service.advance_to(at)
        assert service.submit(job)
        calls = self.count(monkeypatch)
        service.process(arrivals)
        between = 0
        in_cycle = False
        for event in collector.events:
            if event.type is EventType.CYCLE_START:
                in_cycle = True
            elif event.type is EventType.CYCLE_END:
                in_cycle = False
            elif event.type is EventType.RETIRED and not in_cycle:
                between += 1
        assert between > service.stats.cycles
        assert service.stats.retired == service.stats.scheduled > 0
        assert len(calls["trim"]) == service.stats.cycles


class TestLegOnTheFitBoundary:
    """The search, validation and commit read one fit test, so a window
    the search returns is one the commit accepts."""

    def test_pump_defers_cleanly(self):
        collector = CollectingSink()
        validator = TraceValidator()
        service = BrokerService(
            EDGE_OF_COMMIT.pool(),
            config=ServiceConfig(batch_size=1),
            sinks=[collector, validator],
        )
        assert service.submit(Job("edge", EDGE_OF_COMMIT.request))
        service.pump()
        stats = service.stats
        # Node 0 is not a candidate: no window, so the job defers until
        # it is dropped, and nothing is committed.
        assert stats.scheduled == 0
        assert stats.deferred > 0
        assert stats.admitted == stats.scheduled + stats.dropped + service.queue_depth
        assert service.pool.ordered() == EDGE_OF_COMMIT.pool().ordered()
        validator.check(expect_drained=False)
