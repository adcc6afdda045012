"""FederationTraceValidator: demux, intake machine, and ledger laws."""

from __future__ import annotations

import pytest

import json

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.federation import FederationConfig, ShardManager
from repro.federation.tracing import (
    FederationTraceValidator,
    FedJobState,
    validate_federation_trace_file,
)
from repro.service import ServiceConfig
from repro.service.events import Event, EventType, JsonlSink
from repro.service.tracing import TraceInvariantError
from repro.simulation import JobGenerator


def ev(seq, type_, job_id=None, time=0.0, **fields):
    return Event(seq=seq, type=type_, time=time, job_id=job_id, fields=fields)


def routed_pair(seq, job_id, shard):
    """A fed SUBMITTED/ROUTED pair plus the shard's own admission."""
    return [
        ev(seq, EventType.SUBMITTED, job_id),
        ev(seq + 1, EventType.SUBMITTED, job_id, shard_id=shard),
        ev(seq + 2, EventType.ADMITTED, job_id, shard_id=shard),
        ev(seq + 3, EventType.ROUTED, job_id, shard=shard, policy="hash"),
    ]


class TestDemultiplexing:
    def test_shard_events_replay_per_shard(self):
        validator = FederationTraceValidator().observe_all(
            routed_pair(0, "job-1", 0) + routed_pair(4, "job-2", 1)
        )
        assert sorted(validator.shard_validators) == [0, 1]
        assert validator.counts[EventType.ROUTED] == 2
        validator.check()

    def test_routed_without_shard_admission_fails(self):
        validator = FederationTraceValidator().observe_all(
            [
                ev(0, EventType.SUBMITTED, "job-1"),
                ev(1, EventType.ROUTED, "job-1", shard=0),
            ]
        )
        with pytest.raises(TraceInvariantError, match="shard admissions"):
            validator.check()


class TestIntakeMachine:
    def test_rejection_resolves_a_submission(self):
        validator = FederationTraceValidator().observe_all(
            [
                ev(0, EventType.SUBMITTED, "job-1"),
                ev(1, EventType.REJECTED, "job-1", reason="budget_infeasible"),
            ]
        )
        validator.check(expect_drained=True)
        assert validator.job_states()["job-1"] is FedJobState.REJECTED

    def test_unresolved_submission_fails(self):
        validator = FederationTraceValidator().observe_all(
            [ev(0, EventType.SUBMITTED, "job-1")]
        )
        with pytest.raises(TraceInvariantError, match="never reached"):
            validator.check()

    def test_illegal_transition_is_a_violation(self):
        validator = FederationTraceValidator().observe_all(
            [ev(0, EventType.DROPPED, "job-1", cause="shard_lost")]
        )
        with pytest.raises(TraceInvariantError, match="illegal federation"):
            validator.check()

    def test_duplicate_submission_must_be_rejected(self):
        events = routed_pair(0, "job-1", 0) + [
            ev(4, EventType.SUBMITTED, "job-1"),
            ev(5, EventType.REJECTED, "job-1", reason="duplicate_id"),
        ]
        validator = FederationTraceValidator().observe_all(events)
        validator.check()
        # The original routing survives the duplicate episode.
        assert validator.job_states()["job-1"] is FedJobState.ROUTED

    def test_duplicate_followed_by_non_reject_fails(self):
        events = routed_pair(0, "job-1", 0) + [
            ev(4, EventType.SUBMITTED, "job-1"),
            ev(5, EventType.ROUTED, "job-1", shard=0),
        ]
        validator = FederationTraceValidator().observe_all(events)
        with pytest.raises(TraceInvariantError, match="resubmitted"):
            validator.check()


class TestCoallocationLedger:
    def _coalloc(self, seq, job_id, node_seconds=100.0):
        return [
            ev(seq, EventType.SUBMITTED, job_id),
            ev(
                seq + 1,
                EventType.COALLOCATED,
                job_id,
                shards=[0, 1],
                node_seconds=node_seconds,
            ),
        ]

    def test_retire_balances_the_ledger(self):
        events = self._coalloc(0, "job-1") + [
            ev(2, EventType.RETIRED, "job-1", released_node_seconds=100.0)
        ]
        validator = FederationTraceValidator().observe_all(events)
        validator.check(expect_drained=True)
        assert validator.coalloc_released_node_seconds == pytest.approx(100.0)

    def test_over_release_is_a_violation(self):
        events = self._coalloc(0, "job-1") + [
            ev(2, EventType.RETIRED, "job-1", released_node_seconds=150.0)
        ]
        validator = FederationTraceValidator().observe_all(events)
        with pytest.raises(TraceInvariantError, match="exceed"):
            validator.check()

    def test_drained_trace_must_not_leak_committed_seconds(self):
        events = self._coalloc(0, "job-1") + [
            ev(2, EventType.RETIRED, "job-1", released_node_seconds=60.0)
        ]
        validator = FederationTraceValidator().observe_all(events)
        validator.check()  # fine while running ...
        with pytest.raises(TraceInvariantError, match="leaks"):
            validator.check(expect_drained=True)  # ... a leak once drained

    def test_revocation_splits_released_and_forfeited(self):
        events = (
            self._coalloc(0, "job-1")
            + [ev(2, EventType.SHARD_LOST, shard=1, evacuated=0)]
            + [
                ev(
                    3,
                    EventType.REVOKED,
                    "job-1",
                    cause="shard_lost",
                    shard=1,
                    node_seconds=40.0,
                    released_node_seconds=60.0,
                ),
                ev(4, EventType.DROPPED, "job-1", cause="shard_lost"),
            ]
        )
        validator = FederationTraceValidator().observe_all(events)
        validator.check(expect_drained=True)
        assert validator.coalloc_forfeited_node_seconds == pytest.approx(40.0)
        assert validator.coalloc_released_node_seconds == pytest.approx(60.0)
        assert validator.dead_shards == {1}

    def test_displaced_job_left_hanging_fails(self):
        events = (
            self._coalloc(0, "job-1")
            + [
                ev(
                    2,
                    EventType.REVOKED,
                    "job-1",
                    node_seconds=40.0,
                    released_node_seconds=60.0,
                )
            ]
        )
        validator = FederationTraceValidator().observe_all(events)
        with pytest.raises(TraceInvariantError, match="displaced"):
            validator.check()


class TestShardLoss:
    def test_double_shard_loss_is_a_violation(self):
        events = [
            ev(0, EventType.SHARD_LOST, shard=0, evacuated=0),
            ev(1, EventType.SHARD_LOST, shard=0, evacuated=0),
        ]
        validator = FederationTraceValidator().observe_all(events)
        with pytest.raises(TraceInvariantError, match="lost twice"):
            validator.check()

    def test_dead_shards_skip_drained_laws(self):
        # Shard 0 admits a job and dies mid-flight: its sub-trace is not
        # drained, but the federation dropped the job, so drained-mode
        # check must still pass.
        events = routed_pair(0, "job-1", 0) + [
            ev(4, EventType.SHARD_LOST, shard=0, evacuated=1),
            ev(5, EventType.DROPPED, "job-1", cause="shard_lost", shard=0),
        ]
        validator = FederationTraceValidator().observe_all(events)
        validator.check(expect_drained=True)

    def test_summary_reports_both_tiers(self):
        validator = FederationTraceValidator().observe_all(
            routed_pair(0, "job-1", 0)
        )
        summary = validator.summary()
        assert summary["routed"] == 1
        assert summary["shards"][0]["admitted"] == 1
        assert summary["violations"] == 0


class TestTraceFile:
    """``validate_federation_trace_file`` replays a JSONL trace written
    by a :class:`JsonlSink` on a :class:`ShardManager`."""

    @staticmethod
    def write_drained_trace(path) -> list[str]:
        pool = (
            EnvironmentGenerator(EnvironmentConfig(node_count=32, seed=11))
            .generate()
            .slot_pool()
        )
        config = FederationConfig(shards=4, service=ServiceConfig())
        arrivals = JobGenerator(seed=11).iter_arrivals(40, rate=2.0)
        with JsonlSink(str(path)) as sink:
            ShardManager(pool, config=config, sinks=[sink]).process(arrivals)
        return path.read_text(encoding="utf-8").splitlines()

    def test_drained_run_passes(self, tmp_path):
        path = tmp_path / "fed-trace.jsonl"
        lines = self.write_drained_trace(path)
        validator = validate_federation_trace_file(str(path), expect_drained=True)
        assert validator.summary()["routed"] > 0
        assert validator.summary()["violations"] == 0
        assert len(lines) > 40

    def test_a_missing_routed_line_fails(self, tmp_path):
        path = tmp_path / "fed-trace.jsonl"
        lines = self.write_drained_trace(path)
        routed = next(
            index
            for index, line in enumerate(lines)
            if json.loads(line)["type"] == EventType.ROUTED.value
        )
        del lines[routed]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TraceInvariantError):
            validate_federation_trace_file(str(path), expect_drained=True)
