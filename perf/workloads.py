"""The five benchmark workloads, each one deterministic *episode* function.

An episode builds its inputs from ``seed`` alone, sets the system up,
drives it through the public API only, and returns what it measured plus
the exact decision counts the correctness gate compares.  Sizes are
keyword arguments (defaults = the benchmark's sizes) so the harness
tests can run every episode tiny without any hidden scale switch.

All episodes run ``ServiceConfig(workers=1)``: one process, one thread,
at most one socket connection.  The load loop is **closed, one client**:
arrival *times* are on the virtual clock (they fix how much work each
cycle sees), the next ``advance_to / submit / pump`` is issued when the
previous returns, and wall time is pure scheduling compute.

With ``validate=True`` an episode attaches the replaying trace validator
as an event sink, turns the pool invariant check on and checks the laws
after draining.  Validated episodes are never timed.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.algorithms.csa import CSA
from repro.core.vectorized import scan_counters
from repro.environment.generator import EnvironmentConfig, EnvironmentGenerator
from repro.environment.rolling import HorizonConfig, RollingHorizonSource
from repro.federation.client import FederationClient
from repro.federation.config import FederationConfig
from repro.federation.server import FederationServer
from repro.federation.sharding import ShardManager
from repro.federation.tracing import FederationTraceValidator
from repro.model.job import Job, ResourceRequest
from repro.model.slotpool import SlotPool
from repro.scheduling.metascheduler import BatchScheduler
from repro.service.broker import BrokerService
from repro.service.config import ServiceConfig
from repro.service.resilience.config import ResilienceConfig
from repro.service.tracing import TraceValidator
from repro.simulation import runner
from repro.simulation.bench import result_fingerprint
from repro.simulation.config import paper_base_config
from repro.simulation.jobgen import JobGenerator, JobGeneratorConfig
from repro.tenancy.config import TenancyConfig

#: The 8-class ``bench-batch`` palette (4 shapes x 2 budgets per unit):
#: repeated shapes exercise scan-class sharing, budget-only pairs within
#: a shape the shared multi-budget sweep.
PALETTE_SHAPES = ((5, 150.0), (3, 100.0), (8, 150.0), (5, 100.0))
PALETTE_BUDGET_PER_UNIT = (2.0, 4.0)

#: The resource fleet and its background load are the deployment under
#: test, not traffic: they are pinned, and ``seed`` drives the jobs, the
#: arrival times and the fault injection.  (The benchmark's spread is
#: taken across seeds; a 60-node fleet drawn per seed moved
#: ``tenants_faults`` throughput by 23 % on its own, four times what the
#: traffic does.)  ``paper_study`` draws a fresh environment per cycle
#: from the seed, as the paper does.
FLEET_SEED = 2013

#: A wave: one virtual arrival time and the jobs submitted at it.
Wave = tuple[float, list[Job]]


@dataclass
class Episode:
    """What one episode measured and decided."""

    setup_s: float
    #: ``perf_counter()`` when set-up ended and the timed part began.
    timed_from: float
    wall_s: float
    #: Timed operations (jobs submitted; study cycles on ``paper_study``).
    attempted: int
    #: Operations a conservation law cannot account for.
    failed: int
    #: One sample per user-visible wait (scheduling cycle, submit round
    #: trip or study cycle — see the workload).
    latency_ms: list[float]
    #: Exact outcome counts plus the final virtual time; must repeat.
    decisions: dict[str, Any]
    #: Exact per-layer counts over the timed part.
    counts: dict[str, float]


# ----------------------------------------------------------------------
# Broker workloads
# ----------------------------------------------------------------------
def _drive(broker: BrokerService, waves: Sequence[Wave], latency_ms: list[float]) -> int:
    """Feed waves through the broker; returns the summed pool size.

    A latency sample is the wall time of a ``pump()`` / ``advance_to()``
    call that ran at least one cycle, divided by the cycles it ran —
    timed from outside, no sink attached.
    """
    pool_slots = 0
    for at, jobs in waves:
        began = perf_counter()
        ran = broker.advance_to(at)
        took = perf_counter() - began
        if ran:
            latency_ms.append(took * 1e3 / ran)
        for job in jobs:
            broker.submit(job)
        began = perf_counter()
        ran = broker.pump()
        took = perf_counter() - began
        if ran:
            latency_ms.append(took * 1e3 / ran)
        pool_slots += len(broker.pool)
    return pool_slots


def _broker_totals(broker: BrokerService) -> dict[str, float]:
    stats = broker.stats
    return {
        "submitted": stats.submitted,
        "admitted": stats.admitted,
        "rejected": stats.rejected,
        "scheduled": stats.scheduled,
        "deferred": stats.deferred,
        "dropped": stats.dropped,
        "retired": stats.retired,
        "cycles": stats.cycles,
        "batched": stats.phase1_jobs,
        "windows_found": stats.windows_found,
        "slots_published": stats.slots_published,
        "revocations": stats.revocations,
        "repaired": stats.repaired,
        "replanned": stats.replanned,
        "abandoned": stats.abandoned,
        "insufficient_credit": stats.rejected_by_reason.get("insufficient_credit", 0),
    }


def _scan_counts(before: dict[str, int]) -> dict[str, float]:
    """The episode's own share of the process-global ``scan_counters``."""
    delta = {key: scan_counters[key] - before.get(key, 0) for key in scan_counters}
    return {
        "core.scans": delta["vectorized"] + delta["fallback"],
        "core.scans_fallback": delta["fallback"],
        "core.plans_built": delta["plans_built"],
        "core.plans_reused": delta["plans_reused"],
        "core.grouped_jobs": delta["grouped_jobs"],
        "core.grouped_shared": delta["grouped_shared"],
        "core.batch_sweeps": delta["batch_sweeps"],
    }


def _broker_episode(
    started: float,
    nodes: int,
    service: ServiceConfig,
    waves: Sequence[Wave],
    warm_waves: int,
    validate: bool,
) -> Episode:
    """Warm up a fresh CSA-cheapest broker over an empty pool fed by a
    rolling horizon, then time the remaining waves and the drain."""
    validator = TraceValidator() if validate else None
    broker = BrokerService(
        SlotPool(),
        config=service,
        scheduler=BatchScheduler(
            search=CSA(
                max_alternatives=service.alternatives_per_job, amp_policy="cheapest"
            ),
            criterion=service.criterion,
            alternatives_per_job=service.alternatives_per_job,
        ),
        sinks=[validator] if validator is not None else [],
        horizon_source=RollingHorizonSource(
            EnvironmentConfig(node_count=nodes, seed=FLEET_SEED),
            HorizonConfig(lead=600.0, stride=600.0),
        ),
    )
    with broker:
        _drive(broker, waves[:warm_waves], [])
        timed = waves[warm_waves:]
        before = _broker_totals(broker)
        scans_before = dict(scan_counters)
        gc.collect()
        began = perf_counter()

        latency_ms: list[float] = []
        pool_slots = _drive(broker, timed, latency_ms)
        broker.drain()
        ended = perf_counter()

        totals = _broker_totals(broker)
        pending = broker.queue_depth + (
            broker.resilience.pending_retries if broker.resilience is not None else 0
        )
        final_time = broker.now
        multiplier = (
            broker.tenancy.price_multiplier if broker.tenancy is not None else 1.0
        )
        if validator is not None:
            validator.check(expect_drained=True)
            broker.pool.assert_disjoint_per_node()
            if broker.tenancy is not None:
                broker.tenancy.ledger.assert_conservation()

    # The trace validator's own law: submitted = rejected + admitted, and
    # once drained every admitted job was either dropped or landed one
    # more time than it was replanned (an abandoned job had landed, so
    # it is inside `scheduled`).  A policy rejection or drop is an
    # outcome, not a failure.
    landed = totals["scheduled"] - totals["replanned"]
    unaccounted = abs(totals["submitted"] - totals["rejected"] - totals["admitted"]) + abs(
        totals["admitted"] - landed - totals["dropped"] - pending
    )
    delta = {key: totals[key] - before[key] for key in totals}
    counts = _scan_counts(scans_before)
    counts.update(
        {
            "submitted": delta["submitted"],
            "submitted_total": totals["submitted"],
            "placed_total": landed - totals["abandoned"],
            "core.windows_found": delta["windows_found"],
            "environment.slots_published": delta["slots_published"],
            "model.pool_slots_mean": pool_slots / max(1, len(timed)),
            "scheduling.batched": delta["batched"],
            "service.cycles": delta["cycles"],
            "service.rejected": delta["rejected"],
            "service.dropped": delta["dropped"],
            "service.deferred": delta["deferred"],
            "resilience.revocations": delta["revocations"],
            "resilience.repaired": delta["repaired"],
            "tenancy.insufficient_credit": delta["insufficient_credit"],
            "tenancy.price_multiplier_final": multiplier,
        }
    )
    decisions = {key: int(value) for key, value in totals.items()}
    decisions["final_time"] = round(final_time, 6)
    return Episode(
        setup_s=began - started,
        timed_from=began,
        wall_s=ended - began,
        attempted=int(delta["submitted"]),
        failed=int(unaccounted),
        latency_ms=latency_ms,
        decisions=decisions,
        counts=counts,
    )


def _poisson_waves(seed: int, count: int, rate: float) -> list[Wave]:
    arrivals = JobGenerator(seed=seed).iter_arrivals(count, rate=rate)
    return [(at, [job]) for at, job in arrivals]


def soak_poisson(
    seed: int,
    *,
    validate: bool = False,
    nodes: int = 200,
    warm: int = 80,
    timed: int = 300,
) -> Episode:
    """Poisson arrivals at batch 8 through a 200-node rolling-horizon broker."""
    started = perf_counter()
    service = ServiceConfig(batch_size=8, workers=1, check_invariants=validate)
    waves = _poisson_waves(seed, warm + timed, rate=0.8)
    return _broker_episode(started, nodes, service, waves, warm, validate)


def burst_classes(
    seed: int,
    *,
    validate: bool = False,
    nodes: int = 200,
    warm_bursts: int = 2,
    timed_bursts: int = 12,
    burst: int = 64,
) -> Episode:
    """Bursts of 64 palette jobs, 120 virtual seconds apart, at batch 64."""
    started = perf_counter()
    service = ServiceConfig(
        batch_size=64, queue_capacity=256, workers=1, check_invariants=validate
    )
    palette = [
        ResourceRequest(
            node_count=node_count,
            reservation_time=reservation_time,
            budget=per_unit * reservation_time * node_count,
        )
        for node_count, reservation_time in PALETTE_SHAPES
        for per_unit in PALETTE_BUDGET_PER_UNIT
    ]
    rng = np.random.default_rng(seed)
    waves: list[Wave] = []
    for index in range(warm_bursts + timed_bursts):
        jobs = [
            Job(
                job_id=f"burst-{index}-{member}",
                request=palette[int(rng.integers(len(palette)))],
                priority=int(rng.integers(0, 10)),
            )
            for member in range(burst)
        ]
        waves.append((120.0 * (index + 1), jobs))
    return _broker_episode(started, nodes, service, waves, warm_bursts, validate)


def tenants_faults(
    seed: int,
    *,
    validate: bool = False,
    nodes: int = 60,
    warm: int = 100,
    timed: int = 1500,
) -> Episode:
    """DRF tenancy plus live revocations on an over-subscribed 60-node broker."""
    started = perf_counter()
    service = ServiceConfig(
        workers=1,
        check_invariants=validate,
        tenancy=TenancyConfig(ordering="drf", default_credit=200_000.0),
        resilience=ResilienceConfig(rate=0.002, seed=seed, policy="repair"),
    )
    waves = _poisson_waves(seed, warm + timed, rate=0.5)
    return _broker_episode(started, nodes, service, waves, warm, validate)


# ----------------------------------------------------------------------
# Federation
# ----------------------------------------------------------------------
async def _one_federation(
    pool: SlotPool,
    arrivals: Sequence[tuple[float, Job]],
    validate: bool,
    shards: int,
    latency_ms: list[float],
) -> dict[str, float]:
    """Serve one fresh federation to one client; its flat outcome totals."""
    validator = FederationTraceValidator() if validate else None
    manager = ShardManager(
        pool,
        config=FederationConfig(
            shards=shards,
            policy="least-loaded",
            coallocation=True,
            service=ServiceConfig(workers=1, check_invariants=validate),
        ),
        sinks=[validator] if validator is not None else [],
    )
    pool_slots = sum(len(shard.broker.pool) for shard in manager.shards)
    server = FederationServer(manager)
    await server.start()
    try:
        async with await FederationClient.connect(port=server.port) as client:
            for at, job in arrivals:
                sent = perf_counter()
                await client.submit(job, at=at)
                latency_ms.append((perf_counter() - sent) * 1e3)
            final_time = await client.drain()
            stats = await client.stats()
            await client.shutdown()
    finally:
        await server.stop()
    if validator is not None:
        validator.check(expect_drained=True)

    federation = stats["federation"]
    aggregate = stats["aggregate"]
    # The wire's `stats` op carries no phase-1 counters; the shard
    # brokers live in this process, so read theirs directly.
    shard_stats = [shard.broker.stats for shard in manager.shards]
    return {
        "submitted": federation["submitted"],
        "routed": federation["routed"],
        "rerouted": federation["rerouted"],
        "coallocated": federation["coallocated"],
        "coalloc_active": federation["coalloc_active"],
        "rejected": federation["rejected"],
        "federation_dropped": federation["dropped"],
        "scheduled": aggregate["scheduled"],
        "dropped": aggregate["dropped"],
        "shard_rejected": aggregate["rejected"],
        "offers": aggregate["submitted"],
        "windows_found": sum(stats.windows_found for stats in shard_stats),
        "batched": sum(stats.phase1_jobs for stats in shard_stats),
        "cycles": sum(stats.cycles for stats in shard_stats),
        "deferred": sum(stats.deferred for stats in shard_stats),
        "frames": server.frames_served,
        "pool_slots": pool_slots,
        "final_time": final_time,
    }


async def _federation_run(
    started: float,
    seed: int,
    validate: bool,
    nodes: int,
    shards: int,
    jobs: int,
    federations: int,
) -> Episode:
    streams = [
        list(
            JobGenerator(JobGeneratorConfig(node_count_range=(2, 12)), seed=seed + index)
            .iter_arrivals(jobs, rate=2.0)
        )
        for index in range(federations)
    ]
    pools = [
        EnvironmentGenerator(EnvironmentConfig(node_count=nodes, seed=FLEET_SEED))
        .generate()
        .slot_pool()
        for _index in range(federations)
    ]
    scans_before = dict(scan_counters)
    gc.collect()
    began = perf_counter()

    latency_ms: list[float] = []
    runs = [
        await _one_federation(pool, arrivals, validate, shards, latency_ms)
        for pool, arrivals in zip(pools, streams)
    ]
    ended = perf_counter()

    total = {key: sum(run[key] for run in runs) for key in runs[0]}
    # Shard-aggregate `submitted`/`rejected` count failover attempts, so
    # conservation uses the federation-level intake counts and only the
    # shard counts an attempt cannot inflate (scheduled, dropped).
    unaccounted = abs(
        total["submitted"] - total["rejected"] - total["routed"] - total["coallocated"]
    ) + abs(
        total["routed"] + total["rerouted"] - total["scheduled"] - total["dropped"]
    ) + total["coalloc_active"]
    counts = _scan_counts(scans_before)
    counts.update(
        {
            "submitted": total["submitted"],
            "submitted_total": total["submitted"],
            "placed_total": total["scheduled"] + total["coallocated"],
            "core.windows_found": total["windows_found"],
            "model.pool_slots_mean": total["pool_slots"] / federations,
            "scheduling.batched": total["batched"],
            "service.cycles": total["cycles"],
            "service.rejected": total["shard_rejected"],
            "service.dropped": total["dropped"],
            "service.deferred": total["deferred"],
            "federation.frames": total["frames"],
            "federation.coallocated": total["coallocated"],
            "federation.offers": total["offers"],
        }
    )
    decisions = {
        "submitted": total["submitted"],
        "routed": total["routed"],
        "coallocated": total["coallocated"],
        "rejected": total["rejected"],
        "scheduled": total["scheduled"],
        "dropped": total["dropped"] + total["federation_dropped"],
        "offers": total["offers"],
        "final_times": [round(run["final_time"], 6) for run in runs],
    }
    return Episode(
        setup_s=began - started,
        timed_from=began,
        wall_s=ended - began,
        attempted=federations * jobs,
        failed=int(unaccounted),
        latency_ms=latency_ms,
        decisions=decisions,
        counts=counts,
    )


def federation_loopback(
    seed: int,
    *,
    validate: bool = False,
    nodes: int = 128,
    shards: int = 4,
    jobs: int = 300,
    federations: int = 2,
) -> Episode:
    """One client over a real loopback socket to a 4-shard federation.

    The episode is ``federations`` back-to-back fresh federations (traffic
    seeds ``seed``, ``seed + 1``, ...) of ``jobs`` jobs each rather than
    one long one: past ~500 jobs a 128-node federation is so full that
    half the submits take the slow failover path, and the median round
    trip then jumps between 1 ms and 4 ms with the seed.  Building the
    shards, the server and the connection is inside the timed part.
    """
    started = perf_counter()
    return asyncio.run(
        _federation_run(started, seed, validate, nodes, shards, jobs, federations)
    )


# ----------------------------------------------------------------------
# The paper's study
# ----------------------------------------------------------------------
def paper_study(
    seed: int,
    *,
    validate: bool = False,
    nodes: int = 100,
    studies: int = 40,
    cycles: int = 2,
) -> Episode:
    """The Section 3 comparison (five AEP algorithms + CSA), in-process.

    The episode is ``studies`` back-to-back ``run_comparison`` calls of
    ``cycles`` cycles each (seeds ``seed``, ``seed + 1``, ...) rather
    than one long call, so that a per-cycle latency can be timed from
    outside; one latency sample is one call's wall time per cycle.
    """
    started = perf_counter()
    configs = [
        paper_base_config(cycles=cycles, seed=seed + index).with_node_count(nodes)
        for index in range(studies)
    ]
    scans_before = dict(scan_counters)
    gc.collect()
    began = perf_counter()

    latency_ms: list[float] = []
    results = []
    for config in configs:
        sent = perf_counter()
        # Called through the module so the traced pass can wrap it.
        results.append(
            runner.run_comparison(config, include_csa=True, validate=validate)
        )
        latency_ms.append((perf_counter() - sent) * 1e3 / cycles)
    ended = perf_counter()

    digest = hashlib.sha256()
    for result in results:
        digest.update(result_fingerprint(result).encode("ascii"))
    cycles_run = sum(result.cycles_run for result in results)
    found = sum(
        stats.found for result in results for stats in result.algorithms.values()
    )
    counts = _scan_counts(scans_before)
    counts.update(
        {
            "submitted": studies * cycles,
            "submitted_total": studies * cycles,
            "placed_total": cycles_run,
            "core.windows_found": found
            + sum(
                round(result.csa.alternatives.mean * result.csa.alternatives.count)
                for result in results
            ),
            "model.pool_slots_mean": sum(r.slot_count.mean for r in results)
            / max(1, len(results)),
            "service.cycles": cycles_run,
        }
    )
    return Episode(
        setup_s=began - started,
        timed_from=began,
        wall_s=ended - began,
        attempted=studies * cycles,
        failed=studies * cycles - cycles_run,
        latency_ms=latency_ms,
        decisions={
            "cycles_run": cycles_run,
            "windows_found": found,
            "result_fingerprint": digest.hexdigest(),
        },
        counts=counts,
    )


#: name -> episode function.  Names are fixed; later issues cite them.
#: Why each is here is recorded once, in ``BENCHMARK.json``.
WORKLOADS: dict[str, Callable[..., Episode]] = {
    "soak_poisson": soak_poisson,
    "burst_classes": burst_classes,
    "tenants_faults": tenants_faults,
    "federation_loopback": federation_loopback,
    "paper_study": paper_study,
}
