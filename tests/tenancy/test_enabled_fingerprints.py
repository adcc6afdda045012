"""Pinned traces of the *enabled* tenancy + resilience paths.

The disabled paths are pinned in ``test_broker_tenancy.py`` and
``tests/federation/test_tenancy.py``; these three fingerprints do the
same for a broker (and a federation) with both participants live, so a
refactor of the cycle, the clock stepping, the evacuation or the
co-allocator's commit cannot move a single event without failing here.
The literals were recorded on the commit *before* the cycle was staged
(PR 15) and must never be regenerated alongside a behaviour-preserving
change.  Each scenario also asserts that it really visits the paths it
is there to pin — a fingerprint over a trace that never co-allocates
would guard nothing.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.federation import (
    FederationConfig,
    FederationTraceValidator,
    ShardManager,
)
from repro.model import Job, ResourceRequest
from repro.service import (
    BrokerService,
    CollectingSink,
    ResilienceConfig,
    ServiceConfig,
    TraceValidator,
    deterministic_trace,
)
from repro.service.events import EventType
from repro.simulation.jobgen import JobGenerator
from repro.tenancy import TenancyConfig, TenantSpec

BROKER_REPAIR_FINGERPRINT = (
    "dc2094def3754d2307020822a63d78ddc4e9c56f4f2a17c6abe5177088dd6bcf"
)
BROKER_REPLAN_FINGERPRINT = (
    "b96bab865a8a6920712a07d5062571c15f5a9e184f9c1d4b66c826a2579bc765"
)
FEDERATION_FINGERPRINT = (
    "046a826cdb74cf4512887e4bfaad9dc8094062d4a0c69251cbf7492f708ec9dd"
)


def trace_fingerprint(events) -> str:
    canonical = json.dumps(deterministic_trace(events), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def make_pool():
    return (
        EnvironmentGenerator(EnvironmentConfig(node_count=24, seed=42))
        .generate()
        .slot_pool()
    )


def tenancy_config() -> TenancyConfig:
    """DRF + live pricing; ``alice`` runs dry mid-run (commit-time
    credit blocks), ``poor`` can never pay for anything."""
    return TenancyConfig(
        tenants=(
            TenantSpec("alice", credit=1_500.0),
            TenantSpec("bob", credit=50_000.0, weight=2.0),
            TenantSpec("poor", credit=5.0),
        ),
        default_credit=30_000.0,
        ordering="drf",
        pricing=True,
    )


def run_broker(policy: str):
    sink = CollectingSink()
    validator = TraceValidator()
    service = BrokerService(
        make_pool(),
        config=ServiceConfig(
            batch_size=4,
            queue_capacity=32,
            record_assignments=True,
            tenancy=tenancy_config(),
            resilience=ResilienceConfig(rate=0.01, seed=7, policy=policy),
        ),
        sinks=[sink, validator],
    )
    arrivals = list(JobGenerator(seed=42).iter_arrivals(80, rate=1.5))
    for index, (when, job) in enumerate(arrivals):
        service.advance_to(when)
        service.submit(job)
        if index == 20:
            # A queued job withdrawn before its cycle: the
            # ``cancelled`` drop.
            extra = Job(
                "withdrawn",
                ResourceRequest(node_count=2, reservation_time=20.0),
                owner="bob",
            )
            assert service.submit(extra).admitted
            assert service.cancel("withdrawn")
        service.pump()
    service.drain()
    validator.check(expect_drained=True)
    service.tenancy.ledger.assert_conservation()
    return service, sink


def counts_of(sink) -> Counter:
    return Counter(event.type for event in sink.events)


def drop_causes(sink) -> set:
    return {
        event.fields.get("cause")
        for event in sink.events
        if event.type is EventType.DROPPED
    }


class TestBrokerWithBothParticipants:
    def test_repair_trace_matches_the_pinned_fingerprint(self):
        service, sink = run_broker("repair")
        counts = counts_of(sink)
        assert counts[EventType.REPAIRED] > 0
        assert counts[EventType.INSUFFICIENT_CREDIT] > 0
        assert counts[EventType.CREDIT_REFUNDED] > 0
        assert {"cancelled", "max_deferrals"} <= drop_causes(sink)
        multipliers = {
            event.fields["price_multiplier"]
            for event in sink.events
            if event.type is EventType.CYCLE_END
        }
        assert max(multipliers) > 1.0  # live prices reached phase one
        assert trace_fingerprint(sink.events) == BROKER_REPAIR_FINGERPRINT

    def test_replan_trace_matches_the_pinned_fingerprint(self):
        service, sink = run_broker("replan")
        counts = counts_of(sink)
        assert counts[EventType.REPLANNED] > 0
        assert counts[EventType.INSUFFICIENT_CREDIT] > 0
        # The retry buffer fed jobs back through the clock stepping and
        # at least one of them landed a second window.
        assert service.stats.retried > 0
        assert trace_fingerprint(sink.events) == BROKER_REPLAN_FINGERPRINT


def wide_job(job_id: str, owner: str) -> Job:
    """Eight nodes: more than any 6-node shard owns, so only the
    co-allocator can place it."""
    return Job(
        job_id,
        ResourceRequest(node_count=8, reservation_time=30.0),
        owner=owner,
    )


class TestFederationWithSharedTenancy:
    def test_trace_matches_the_pinned_fingerprint(self):
        sink = CollectingSink()
        validator = FederationTraceValidator()
        manager = ShardManager(
            make_pool(),
            config=FederationConfig(
                shards=4,
                service=ServiceConfig(
                    batch_size=4,
                    tenancy=tenancy_config(),
                    resilience=ResilienceConfig(
                        rate=0.01, seed=7, policy="replan"
                    ),
                ),
            ),
            sinks=[sink, validator],
        )
        decisions = {}
        arrivals = list(JobGenerator(seed=42).iter_arrivals(60, rate=1.5))
        for index, (when, job) in enumerate(arrivals):
            manager.advance_to(when)
            manager.submit(job)
            if index % 10 == 4:
                for name, owner in (("wide", "bob"), ("broke", "poor")):
                    job_id = f"{name}-{index}"
                    decisions[job_id] = manager.submit(
                        wide_job(job_id, owner)
                    )
            manager.pump()
            if index == 29:
                on_dead_shard = [
                    job_id
                    for job_id in manager.coallocator.active_ids()
                    if 2 in manager.coallocator.get(job_id).shard_ids
                ]
                assert on_dead_shard  # fail_shard has legs to forfeit
                assert manager.shards[2].broker.queue_depth > 0
                assert manager.shards[2].broker.active_count > 0
                manager.kill_shard(2)
        manager.drain()
        validator.check(expect_drained=True)
        manager.tenancy.ledger.assert_conservation()

        assert decisions["wide-4"].coallocated
        assert not decisions["broke-4"].admitted
        counts = counts_of(sink)
        assert counts[EventType.COALLOCATED] > 0
        assert counts[EventType.SHARD_LOST] == 1
        assert counts[EventType.REPLANNED] > 0
        # The unfunded cross-shard commit rolled back: traced on the
        # federation emitter (no shard tag), nothing left committed.
        assert any(
            event.type is EventType.INSUFFICIENT_CREDIT
            and event.job_id == "broke-4"
            and "shard_id" not in event.fields
            for event in sink.events
        )
        assert manager.coallocator.get("broke-4") is None
        assert trace_fingerprint(sink.events) == FEDERATION_FINGERPRINT
