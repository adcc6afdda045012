"""DRF buys fairness that FIFO does not: the hog-vs-small-tenants mix.

One aggressive tenant (the *hog*) owns every other job of an overloaded
arrival stream; three small tenants share the rest.  The identical
stream runs twice through the same broker configuration — once with the
FIFO cycle drain, once with DRF ordering — with credits and pricing live
in both.  Jain's index over the per-tenant committed node-seconds must
rise under DRF: FIFO gives the hog whatever its queue position buys,
DRF serves the tenant with the smallest dominant share first.

Each run must also pass every trace law (credit conservation included)
and balance its live ledger, and the stream must actually be contended
— on an uncontended pool every ordering is trivially fair.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.fairness import jain_index
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.service import BrokerService, ServiceConfig, TraceValidator
from repro.simulation.jobgen import JobGenerator
from repro.tenancy import TenancyConfig


def wave_mix(jobs, small_tenants, rate, wave, seed=2013):
    """Bursts of ``wave`` jobs, alternately owned by the hog and by the
    small tenants in turn, each burst stamped with its first arrival.

    A whole burst is submitted before any cycle runs, so the queue backs
    up past the batch size — the only regime where the drain's
    *selection*, not merely its order, can differ between orderings.
    """
    names = [f"tenant-{index + 1}" for index in range(small_tenants)]
    arrivals = list(JobGenerator(seed=seed).iter_arrivals(jobs, rate=rate))
    owners = ["hog" if index % 2 == 0 else names[index // 2 % small_tenants]
              for index in range(jobs)]
    owned = [
        (at, replace(job, owner=owner))
        for owner, (at, job) in zip(owners, arrivals)
    ]
    return [
        (owned[start][0], [job for _, job in owned[start : start + wave]])
        for start in range(0, len(owned), wave)
    ]


def run_ordering(ordering, waves, node_count, batch_size=4, env_seed=42):
    """Drain the mix under one cycle ordering; return (Jain index, stats)."""
    pool = (
        EnvironmentGenerator(EnvironmentConfig(node_count=node_count, seed=env_seed))
        .generate()
        .slot_pool()
    )
    validator = TraceValidator()
    config = ServiceConfig(
        batch_size=batch_size,
        check_invariants=False,
        tenancy=TenancyConfig(ordering=ordering, default_credit=1_000_000.0),
    )
    with BrokerService(pool, config=config, sinks=[validator]) as broker:
        for wave_time, wave_jobs in waves:
            broker.advance_to(wave_time)
            for job in wave_jobs:
                broker.submit(job)
            broker.pump()
        broker.drain()
        validator.check(expect_drained=True)
        ledger = broker.tenancy.ledger
        ledger.assert_conservation()
        shares = ledger.committed_shares()
        assert "hog" in shares
        return jain_index(list(shares.values())), broker.stats


class TestGates:
    def test_contended_mix_passes_and_reports_both_orderings(self):
        waves = wave_mix(jobs=80, small_tenants=3, rate=8.0, wave=16)
        fifo_jain, fifo = run_ordering("fifo", waves, node_count=8)
        drf_jain, drf = run_ordering("drf", waves, node_count=8)
        assert fifo.dropped + drf.dropped > 0
        assert 0.0 < fifo_jain < drf_jain <= 1.0

    def test_uncontended_stream_drops_nothing(self):
        # The contention premise above can fail: a light stream on a
        # large pool drops nothing, whatever the ordering.
        waves = wave_mix(jobs=6, small_tenants=2, rate=0.2, wave=2)
        for ordering in ("fifo", "drf"):
            _, stats = run_ordering(ordering, waves, node_count=32, batch_size=2)
            assert stats.dropped == 0, ordering
