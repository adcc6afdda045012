"""The tenancy layer across a federation: shared ledger, protocol ops.

The federation-level opt-in promise is pinned the same way as the
broker's: with ``ServiceConfig.tenancy`` unset the merged federation
trace is byte-identical to the pre-tenancy build.  Enabled, one
``TenancyManager`` is shared by every shard broker and the co-allocator,
so the credit laws are checked federation-wide (a tenant's spending
interleaves across shards) — including through a mid-run shard death.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import pytest

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.federation import (
    FederationClient,
    FederationConfig,
    FederationServer,
    FederationTraceValidator,
    ShardManager,
)
from repro.service import CollectingSink, ServiceConfig, deterministic_trace
from repro.service.events import EventType
from repro.simulation.jobgen import JobGenerator
from repro.tenancy import TenancyConfig, TenantSpec

#: SHA-256 of the canonical 60-job seed-42 3-shard federation trace,
#: captured on the commit before the tenancy subsystem existed.
FEDERATION_FINGERPRINT = (
    "5538f46f78e30aa9a3c1ca3a0da79084cde9f610fc9c0f045595b6e58733fe19"
)


def make_pool():
    return (
        EnvironmentGenerator(EnvironmentConfig(node_count=24, seed=42))
        .generate()
        .slot_pool()
    )


def tenancy_config() -> TenancyConfig:
    return TenancyConfig(
        tenants=(
            TenantSpec("alice", credit=50_000.0),
            TenantSpec("bob", credit=50_000.0, weight=2.0),
        ),
        default_credit=30_000.0,
    )


class TestDisabledIsByteIdentical:
    def test_federation_trace_matches_the_pre_tenancy_fingerprint(self):
        sink = CollectingSink()
        manager = ShardManager(
            make_pool(),
            config=FederationConfig(
                shards=3, service=ServiceConfig(batch_size=4)
            ),
            sinks=[sink],
        )
        manager.process(JobGenerator(seed=42).iter_arrivals(60, rate=1.5))
        assert manager.tenancy is None
        canonical = json.dumps(
            deterministic_trace(sink.events), sort_keys=True
        )
        assert (
            hashlib.sha256(canonical.encode()).hexdigest()
            == FEDERATION_FINGERPRINT
        )

    def test_federation_trace_matches_the_fingerprint_with_py312_sum(self, py312_sum):
        self.test_federation_trace_matches_the_pre_tenancy_fingerprint()


class TestSharedLedgerAcrossShards:
    def run_federation(self, kill: bool):
        sink = CollectingSink()
        validator = FederationTraceValidator()
        manager = ShardManager(
            make_pool(),
            config=FederationConfig(
                shards=3,
                service=ServiceConfig(
                    batch_size=4, tenancy=tenancy_config()
                ),
            ),
            sinks=[sink, validator],
        )
        arrivals = list(JobGenerator(seed=42).iter_arrivals(60, rate=1.5))
        for when, job in arrivals[:30]:
            manager.advance_to(when)
            manager.submit(job)
            manager.pump()
        if kill:
            manager.kill_shard(1)
        for when, job in arrivals[30:]:
            manager.advance_to(when)
            manager.submit(job)
            manager.pump()
        manager.drain()
        return manager, validator, sink

    def test_clean_run_balances_the_shared_ledger(self):
        manager, validator, _ = self.run_federation(kill=False)
        validator.check(expect_drained=True)
        manager.tenancy.ledger.assert_conservation()
        assert manager.tenancy.ledger.open_escrow() == 0.0
        assert validator.counts[EventType.CREDIT_DEBITED] > 0
        assert "credits" in validator.summary()

    def test_shard_death_refunds_are_conserved(self):
        manager, validator, sink = self.run_federation(kill=True)
        validator.check(expect_drained=True)
        ledger = manager.tenancy.ledger
        ledger.assert_conservation()
        assert ledger.open_escrow() == 0.0
        kinds = [event.type for event in sink.events]
        assert EventType.SHARD_LOST in kinds
        # The death path actually exercised the refund legs.
        assert validator.counts[EventType.CREDIT_REFUNDED] > 0
        snapshot = manager.stats_snapshot()
        assert "tenancy" in snapshot


class TestProtocolOps:
    def make_server(self, sinks=()):
        manager = ShardManager(
            make_pool(),
            config=FederationConfig(
                shards=2,
                service=ServiceConfig(batch_size=2, tenancy=tenancy_config()),
            ),
            sinks=sinks,
        )
        return FederationServer(manager)

    def test_submit_carries_the_tenant_and_credits_report_it(self):
        async def _run():
            server = self.make_server()
            await server.start()
            try:
                async with await FederationClient.connect(
                    port=server.port
                ) as client:
                    for index, (when, job) in enumerate(
                        JobGenerator(seed=3).iter_arrivals(12, rate=3.0)
                    ):
                        response = await client.submit(
                            job,
                            at=when,
                            tenant_id="alice" if index % 2 else "bob",
                        )
                        assert response["job_id"] == job.job_id
                    await client.drain()
                    credits = await client.credits()
                    tenants = await client.tenants()
            finally:
                await server.stop()
            return credits, tenants

        credits, tenants = asyncio.run(_run())
        assert credits["ledger"]["open_escrow"] == pytest.approx(0.0)
        names = {row["name"] for row in tenants}
        assert {"alice", "bob"} <= names
        by_name = {row["name"]: row for row in tenants}
        assert by_name["bob"]["weight"] == 2.0
        for row in tenants:
            assert row["balance"] >= 0.0
            assert row["dominant_share"] >= 0.0

    def test_credits_op_errors_without_tenancy(self):
        async def _run():
            pool = make_pool()
            manager = ShardManager(
                pool,
                config=FederationConfig(
                    shards=2, service=ServiceConfig()
                ),
            )
            server = FederationServer(manager)
            await server.start()
            try:
                async with await FederationClient.connect(
                    port=server.port
                ) as client:
                    from repro.federation import FederationClientError

                    with pytest.raises(FederationClientError):
                        await client.credits()
                    with pytest.raises(FederationClientError):
                        await client.tenants()
            finally:
                await server.stop()

        asyncio.run(_run())
