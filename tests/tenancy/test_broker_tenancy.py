"""The tenancy layer threaded through a live broker.

The load-bearing guarantee comes first: with ``ServiceConfig.tenancy``
left at ``None`` the broker's deterministic trace is *byte-identical*
to the pre-tenancy build — asserted against a pinned fingerprint — so
the whole subsystem is provably inert until switched on.  The rest
exercises the enabled paths: DRF batch selection, admission and
commit-time credit gates, pricing in the cycle trace, forfeit and
evacuation refunds, and end-to-end conservation under a realistic run.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import Job, ResourceRequest, SlotPool
from repro.service import (
    BrokerService,
    CollectingSink,
    ResilienceConfig,
    ServiceConfig,
    TraceValidator,
    deterministic_trace,
)
from repro.service.admission import RejectionReason
from repro.service.events import EventType
from repro.simulation.jobgen import JobGenerator
from repro.tenancy import TenancyConfig, TenantSpec

from tests.conftest import make_slot

#: SHA-256 of the canonical 60-job seed-42 broker trace, captured on the
#: commit *before* the tenancy subsystem existed.  If a tenancy-disabled
#: broker ever emits a different trace, the opt-in promise is broken.
BROKER_FINGERPRINT = (
    "bb8534dfba982475942a7eee750413e492b7b2c30162dae060f37223a095538a"
)


def trace_fingerprint(events) -> str:
    canonical = json.dumps(deterministic_trace(events), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def uniform_pool(nodes: int = 4) -> SlotPool:
    """Identical nodes (perf 4, price 2) free on [0, 100): a 2-node
    20-unit request costs exactly 20 on any pair."""
    return SlotPool.from_slots(
        [make_slot(i, 0.0, 100.0) for i in range(nodes)]
    )


def job(job_id: str, owner: str, budget: float = 1000.0) -> Job:
    return Job(
        job_id,
        ResourceRequest(node_count=2, reservation_time=20.0, budget=budget),
        owner=owner,
    )


class TestDisabledIsByteIdentical:
    def test_broker_trace_matches_the_pre_tenancy_fingerprint(self):
        env = EnvironmentGenerator(
            EnvironmentConfig(node_count=24, seed=42)
        ).generate()
        sink = CollectingSink()
        service = BrokerService(
            env.slot_pool(),
            config=ServiceConfig(batch_size=4, record_assignments=True),
            sinks=[sink],
        )
        service.process(JobGenerator(seed=42).iter_arrivals(60, rate=1.5))
        assert service.tenancy is None
        assert trace_fingerprint(sink.events) == BROKER_FINGERPRINT


class TestDRFBatchSelection:
    def make_broker(self, ordering: str) -> BrokerService:
        return BrokerService(
            uniform_pool(),
            config=ServiceConfig(
                batch_size=2,
                tenancy=TenancyConfig(ordering=ordering),
            ),
        )

    def test_fifo_lets_the_queue_head_monopolise_the_batch(self):
        broker = self.make_broker("fifo")
        for j in (job("h1", "hog"), job("h2", "hog"), job("s1", "small")):
            broker.submit(j)
        broker.pump()
        shares = broker.tenancy.ledger.committed_shares()
        assert shares.get("hog", 0.0) > 0.0
        assert shares.get("small", 0.0) == 0.0

    def test_drf_serves_the_smallest_dominant_share_first(self):
        broker = self.make_broker("drf")
        for j in (job("h1", "hog"), job("h2", "hog"), job("s1", "small")):
            broker.submit(j)
        broker.pump()
        shares = broker.tenancy.ledger.committed_shares()
        # Serving the first hog job lifts the hog's share above zero, so
        # the second batch slot must go to the small tenant.
        assert shares.get("hog", 0.0) > 0.0
        assert shares.get("small", 0.0) > 0.0


class TestCreditGates:
    def test_admission_rejects_tenants_who_cannot_pay_the_lower_bound(self):
        broker = BrokerService(
            uniform_pool(),
            config=ServiceConfig(
                tenancy=TenancyConfig(
                    tenants=(TenantSpec("poor", credit=5.0),)
                )
            ),
        )
        sink = CollectingSink()
        broker.events.add_sink(sink)
        decision = broker.submit(job("j1", "poor"))
        assert not decision.admitted
        assert decision.reason is RejectionReason.INSUFFICIENT_CREDIT
        kinds = [e.type for e in sink.events]
        assert EventType.INSUFFICIENT_CREDIT in kinds
        assert EventType.REJECTED in kinds

    def test_enforcement_off_admits_but_still_defers_overdrafts(self):
        broker = BrokerService(
            uniform_pool(),
            config=ServiceConfig(
                batch_size=1,
                tenancy=TenancyConfig(
                    tenants=(TenantSpec("poor", credit=5.0),),
                    enforce_credits=False,
                ),
            ),
        )
        decision = broker.submit(job("j1", "poor"))
        assert decision.admitted  # ledger is observe-only at the door
        broker.pump()
        # ...but the commit still cannot overdraw the account.
        assert broker.tenancy.ledger.balance("poor") == 5.0
        assert broker.stats.scheduled == 0

    def test_commit_gate_blocks_the_second_window_of_a_thin_account(self):
        # Balance 30 passes the admission lower bound (20) for both
        # jobs, but escrowing the first window leaves only 10: the
        # second commit must be deferred, not executed.
        validator = TraceValidator()
        broker = BrokerService(
            uniform_pool(),
            config=ServiceConfig(
                batch_size=2,
                tenancy=TenancyConfig(
                    tenants=(TenantSpec("thin", credit=30.0),)
                ),
            ),
            sinks=[validator],
        )
        assert broker.submit(job("j1", "thin")).admitted
        assert broker.submit(job("j2", "thin")).admitted
        broker.pump()
        assert broker.stats.scheduled == 1
        assert validator.counts[EventType.INSUFFICIENT_CREDIT] == 1
        assert broker.tenancy.ledger.balance("thin") == pytest.approx(10.0)
        broker.drain()
        broker.tenancy.ledger.assert_conservation()
        # The drained trace still satisfies every law: the blocked job
        # reached a terminal state without ever touching the ledger.
        validator.check(expect_drained=True)

    def test_settlement_spends_the_escrow_on_retirement(self):
        broker = BrokerService(
            uniform_pool(),
            config=ServiceConfig(
                batch_size=1,
                tenancy=TenancyConfig(tenants=(TenantSpec("a", credit=100.0),)),
            ),
        )
        broker.submit(job("j1", "a"))
        broker.pump()
        assert broker.tenancy.ledger.balance("a") == pytest.approx(80.0)
        broker.drain()
        ledger = broker.tenancy.ledger
        assert ledger.balance("a") == pytest.approx(80.0)
        assert ledger.total_revenue() == pytest.approx(20.0)
        assert ledger.open_escrow() == 0.0
        ledger.assert_conservation()


class TestPricingInTheTrace:
    def test_cycle_end_carries_the_live_multiplier(self):
        sink = CollectingSink()
        broker = BrokerService(
            uniform_pool(),
            config=ServiceConfig(batch_size=1, tenancy=TenancyConfig()),
            sinks=[sink],
        )
        broker.submit(job("j1", "a"))
        broker.pump()
        cycle_ends = [e for e in sink.events if e.type is EventType.CYCLE_END]
        assert cycle_ends
        multiplier = cycle_ends[-1].fields["price_multiplier"]
        assert multiplier >= 1.0

    def test_disabled_pricing_never_moves_the_multiplier(self):
        broker = BrokerService(
            uniform_pool(),
            config=ServiceConfig(
                tenancy=TenancyConfig(pricing=False)
            ),
        )
        for index in range(4):
            broker.submit(job(f"j{index}", "a"))
        broker.pump()
        assert broker.tenancy.price_multiplier == 1.0


class TestForfeitAttribution:
    """Satellite regression: forfeits are billed to the window's owner."""

    def test_resilience_revocation_attributes_the_owner(self):
        pool = EnvironmentGenerator(
            EnvironmentConfig(node_count=40, seed=11)
        ).generate()
        sink = CollectingSink()
        service = BrokerService(
            pool.slot_pool(),
            config=ServiceConfig(
                batch_size=1,
                record_assignments=True,
                resilience=ResilienceConfig(rate=0.0, policy="abandon"),
            ),
            sinks=[sink],
        )
        service.submit(
            Job(
                "j0",
                ResourceRequest(
                    node_count=2, reservation_time=20.0, budget=2000.0
                ),
                owner="alice",
            )
        )
        assert service.pump() == 1
        window = service.assignments["j0"]
        from repro.service import NodePreemption

        leg = window.slots[0]
        service.resilience.apply(
            NodePreemption(
                node_id=leg.slot.node.node_id,
                arrival=window.start,
                length=5.0,
            ),
            service.now,
        )
        # The owner is billed for exactly the revoked node-seconds...
        assert service.stats.forfeited_by_owner == {
            "alice": pytest.approx(service.stats.forfeited_node_seconds)
        }
        assert service.stats.forfeited_node_seconds > 0.0
        # ...and the REVOKED event names the owner for the trace.
        revoked = [e for e in sink.events if e.type is EventType.REVOKED]
        assert revoked and revoked[0].fields["owner"] == "alice"

    def test_evacuation_refunds_every_live_escrow(self):
        config = TenancyConfig(tenants=(TenantSpec("a", credit=100.0),))
        broker = BrokerService(
            uniform_pool(), config=ServiceConfig(batch_size=1, tenancy=config)
        )
        broker.submit(job("j1", "a"))
        broker.pump()
        ledger = broker.tenancy.ledger
        assert ledger.open_escrow() == pytest.approx(20.0)
        broker.evacuate()
        # Forfeit (half back) then release of the remainder: the tenant
        # ends with the forfeit's spent part as its only loss.
        assert ledger.open_escrow() == 0.0
        assert ledger.balance("a") == pytest.approx(90.0)
        assert ledger.total_revenue() == pytest.approx(10.0)
        ledger.assert_conservation()


class TestEndToEndConservation:
    def test_wave_loaded_run_passes_every_law(self):
        owners = ("hog", "t1", "t2")
        arrivals = []
        for index, (when, item) in enumerate(
            JobGenerator(seed=7).iter_arrivals(40, rate=4.0)
        ):
            from dataclasses import replace

            arrivals.append(
                (when, replace(item, owner=owners[index % len(owners)]))
            )
        pool = (
            EnvironmentGenerator(EnvironmentConfig(node_count=12, seed=42))
            .generate()
            .slot_pool()
        )
        validator = TraceValidator()
        broker = BrokerService(
            pool,
            config=ServiceConfig(batch_size=4, tenancy=TenancyConfig()),
            sinks=[validator],
        )
        for start in range(0, len(arrivals), 8):
            wave = arrivals[start : start + 8]
            broker.advance_to(wave[0][0])
            for _, item in wave:
                broker.submit(item)
            broker.pump()
        broker.drain()
        ledger = broker.tenancy.ledger
        ledger.assert_conservation()
        assert ledger.open_escrow() == 0.0
        assert validator.counts[EventType.CREDIT_DEBITED] > 0
        validator.check(expect_drained=True)
