"""ShardManager behaviour: routing, equivalence, shard loss, draining."""

from __future__ import annotations

import pytest

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.federation import (
    FederationConfig,
    FederationTraceValidator,
    ShardManager,
)
from repro.model import Job, ResourceRequest, SlotPool
from repro.model.errors import ConfigurationError, SchedulingError
from repro.service import BrokerService, ServiceConfig
from repro.simulation import JobGenerator
from tests.conftest import make_slot


def env_pool(node_count=16, seed=7) -> SlotPool:
    config = EnvironmentConfig(node_count=node_count, seed=seed)
    return EnvironmentGenerator(config).generate().slot_pool()


def arrivals(jobs=30, rate=2.0, seed=11):
    return list(JobGenerator(seed=seed).iter_arrivals(jobs, rate=rate))


def wide_job(job_id="job-wide", node_count=3):
    return Job(
        job_id=job_id,
        request=ResourceRequest(
            node_count=node_count, reservation_time=20.0, budget=1000.0
        ),
    )


class TestSingleShardEquivalence:
    def test_one_shard_hash_matches_plain_broker(self):
        """Federating must not change any scheduling decision at N=1."""
        service = ServiceConfig()
        stream = arrivals(jobs=40)
        broker = BrokerService(env_pool(), config=service)
        reference = broker.process(iter(stream))
        config = FederationConfig(shards=1, policy="hash", service=service)
        manager = ShardManager(env_pool(), config=config)
        manager.process(iter(stream))
        shard_stats = manager.shards[0].broker.stats
        assert shard_stats.scheduled == reference.scheduled
        assert shard_stats.dropped == reference.dropped
        assert shard_stats.rejected == reference.rejected
        assert shard_stats.retired == reference.retired
        assert shard_stats.cycles == reference.cycles


class TestIntake:
    def test_routed_jobs_land_on_one_shard(self):
        config = FederationConfig(shards=2, service=ServiceConfig())
        manager = ShardManager(env_pool(), config=config)
        decision = manager.submit(arrivals(jobs=1)[0][1])
        assert decision.admitted
        assert decision.shard_id in (0, 1)
        assert not decision.coallocated

    def test_duplicate_id_rejected_everywhere(self):
        config = FederationConfig(shards=2, service=ServiceConfig())
        manager = ShardManager(env_pool(), config=config)
        job = arrivals(jobs=1)[0][1]
        assert manager.submit(job).admitted
        duplicate = manager.submit(job)
        assert not duplicate.admitted
        assert duplicate.reason == "duplicate_id"

    def test_coallocation_when_no_shard_is_wide_enough(self):
        # 4 nodes in 2 shards of 2: a 3-node job fits no single shard.
        pool = SlotPool.from_slots(
            make_slot(i, 0.0, 200.0) for i in range(4)
        )
        config = FederationConfig(shards=2, service=ServiceConfig())
        validator = FederationTraceValidator()
        manager = ShardManager(pool, config=config, sinks=[validator])
        decision = manager.submit(wide_job())
        assert decision.admitted and decision.coallocated
        assert len(decision.shard_ids) == 2
        located = manager.locate("job-wide")
        assert located == {
            "state": "coallocated",
            "shards": list(decision.shard_ids),
        }
        manager.drain()
        assert manager.stats.coalloc_retired == 1
        validator.check(expect_drained=True)

    def test_coallocation_disabled_rejects_wide_jobs(self):
        pool = SlotPool.from_slots(
            make_slot(i, 0.0, 200.0) for i in range(4)
        )
        config = FederationConfig(
            shards=2, coallocation=False, service=ServiceConfig()
        )
        manager = ShardManager(pool, config=config)
        decision = manager.submit(wide_job())
        assert not decision.admitted
        assert decision.reason == "too_few_nodes"

    def test_cancel_reaches_the_owning_shard(self):
        # A huge batch trigger keeps the job queued at cancel time.
        config = FederationConfig(
            shards=2,
            service=ServiceConfig(batch_size=100, max_wait=1e6),
        )
        manager = ShardManager(env_pool(), config=config)
        job = arrivals(jobs=1)[0][1]
        assert manager.submit(job).admitted
        assert manager.cancel(job.job_id)
        assert manager.locate(job.job_id) is None
        assert not manager.cancel(job.job_id)


class TestClockAndDrain:
    def test_advance_is_monotone(self):
        config = FederationConfig(shards=2, service=ServiceConfig())
        manager = ShardManager(env_pool(), config=config)
        manager.advance_to(10.0)
        with pytest.raises(SchedulingError):
            manager.advance_to(5.0)

    def test_process_drains_everything(self):
        validator = FederationTraceValidator()
        config = FederationConfig(shards=3, service=ServiceConfig())
        manager = ShardManager(
            env_pool(24), config=config, sinks=[validator]
        )
        manager.process(iter(arrivals(jobs=30)))
        assert manager.is_idle()
        snapshot = manager.stats_snapshot()
        validator.check(expect_drained=True)
        federation = snapshot["federation"]
        assert federation["submitted"] == 30
        assert (
            federation["routed"]
            + federation["coallocated"]
            + federation["rejected"]
            == 30
        )

    def test_stats_snapshot_aggregate_sums_shards(self):
        config = FederationConfig(shards=2, service=ServiceConfig())
        manager = ShardManager(env_pool(), config=config)
        manager.process(iter(arrivals(jobs=20)))
        snapshot = manager.stats_snapshot()
        for key in ("submitted", "scheduled", "dropped", "retired"):
            assert snapshot["aggregate"][key] == sum(
                row[key] for row in snapshot["shards"]
            )


class TestShardLoss:
    def _run_with_kill(self, kill_after=10, shards=3, jobs=30):
        validator = FederationTraceValidator()
        config = FederationConfig(
            shards=shards,
            # Large batch trigger: jobs pile up queued, so the kill hits
            # a shard with real in-flight state to evacuate.
            service=ServiceConfig(batch_size=12, max_wait=50.0),
        )
        manager = ShardManager(env_pool(24), config=config, sinks=[validator])
        stream = arrivals(jobs=jobs)
        for when, job in stream[:kill_after]:
            manager.advance_to(when)
            manager.submit(job)
            manager.pump()
        evacuated = manager.kill_shard(1)
        for when, job in stream[kill_after:]:
            manager.advance_to(max(when, manager.now))
            manager.submit(job)
            manager.pump()
        manager.drain()
        return manager, validator, evacuated

    def test_lost_shard_jobs_rerouted_or_dropped_never_lost(self):
        manager, validator, evacuated = self._run_with_kill()
        validator.check(expect_drained=True)
        assert manager.stats.shard_losses == 1
        assert not manager.shards[1].alive
        # Every evacuated job reached a terminal or re-routed state:
        # the fed validator would flag any job stuck in "displaced".
        assert manager.stats.rerouted + manager.stats.dropped >= 0
        summary = validator.summary()
        assert summary["dead_shards"] == [1]
        assert summary["violations"] == 0

    def test_killing_dead_or_unknown_shard_raises(self):
        manager, _, _ = self._run_with_kill()
        with pytest.raises(SchedulingError):
            manager.kill_shard(1)
        with pytest.raises(ConfigurationError):
            manager.kill_shard(99)

    def test_submissions_continue_on_survivors(self):
        manager, validator, _ = self._run_with_kill()
        # The run above already drained; live shards still admit.
        job = Job(
            job_id="job-after-loss",
            request=ResourceRequest(
                node_count=2, reservation_time=20.0, budget=1000.0
            ),
        )
        decision = manager.submit(job)
        assert decision.admitted
        assert decision.shard_id != 1
        manager.drain()
        validator.check(expect_drained=True)

    def test_losing_every_shard_rejects_new_work(self):
        config = FederationConfig(shards=2, service=ServiceConfig())
        manager = ShardManager(env_pool(), config=config)
        manager.kill_shard(0)
        manager.kill_shard(1)
        decision = manager.submit(arrivals(jobs=1)[0][1])
        assert not decision.admitted
        assert decision.reason == "no_live_shards"
