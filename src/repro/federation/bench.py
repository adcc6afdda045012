"""Federation benchmark: real sockets, honest clocks, checked invariants.

The benchmark drives a live :class:`~repro.federation.server.FederationServer`
over loopback TCP — actual asyncio streams, framing, and backpressure,
not an in-process shortcut — at several shard counts and reports

* submit-to-schedule latency (p50/p99 wall seconds, measured server-side
  from the intake ``SUBMITTED`` event to the owning shard's ``SCHEDULED``
  or the federation's ``COALLOCATED`` event), and
* end-to-end submission throughput (jobs per wall second over the full
  submit-and-drain run).

Two refuse-to-record guards keep the numbers honest:

* every run's merged trace must pass
  :class:`~repro.federation.tracing.FederationTraceValidator` with the
  drained laws — a bench that leaks node-seconds records nothing;
* the 1-shard hash-policy run must produce exactly the same scheduled /
  dropped / rejected counts as a plain single-broker run over the same
  pool and arrival stream — federating must change *where* decisions
  happen, never *which* decisions happen.
"""

from __future__ import annotations

import asyncio
import json
import sys
from time import perf_counter
from typing import Any, Optional, Sequence

from repro.core.vectorized import scan_counters
from repro.environment.generator import EnvironmentConfig, EnvironmentGenerator
from repro.federation.client import FederationClient
from repro.federation.config import FederationConfig
from repro.federation.server import FederationServer
from repro.federation.sharding import ShardManager
from repro.federation.tracing import FederationTraceValidator
from repro.service.broker import BrokerService
from repro.service.config import ServiceConfig
from repro.service.events import Event, EventSink, EventType
from repro.service.stats import ReservoirSampler
from repro.hostinfo import host_payload
from repro.simulation.jobgen import JobGenerator


class InvarianceError(AssertionError):
    """The 1-shard federation diverged from the single broker — never
    record timings."""


class SubmitLatencyRecorder(EventSink):
    """Server-side wall-clock stopwatch per job.

    Stamps the intake ``SUBMITTED`` event and resolves at the first
    placement proof: the owning shard's ``SCHEDULED`` or the intake
    tier's ``COALLOCATED``.  Jobs that are rejected or dropped simply
    never resolve — latency is a property of placed work.

    Resolved latencies land in a seeded :class:`ReservoirSampler`
    rather than an unbounded list (an earlier revision grew one float
    per placed job, a leak over soak-length runs); ``count`` and
    ``peak`` stay exact while quantiles are estimated over the
    fixed-capacity uniform sample.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._pending: dict[str, float] = {}
        self._reservoir = ReservoirSampler(capacity=capacity)
        self.peak = 0.0

    @property
    def samples(self) -> list[float]:
        """The retained latency samples (at most ``capacity`` of them)."""
        return list(self._reservoir._samples)

    @property
    def count(self) -> int:
        """Exact number of resolved (placed) jobs."""
        return self._reservoir.count

    def quantiles(self, *qs: float) -> tuple[float, ...]:
        """Estimated stream quantiles from the reservoir."""
        return self._reservoir.quantiles(*qs)

    def emit(self, event: Event) -> None:
        if event.job_id is None:
            return
        shard_tagged = "shard_id" in event.fields
        if event.type is EventType.SUBMITTED and not shard_tagged:
            self._pending[event.job_id] = perf_counter()
        elif (event.type is EventType.SCHEDULED and shard_tagged) or (
            event.type is EventType.COALLOCATED and not shard_tagged
        ):
            started = self._pending.pop(event.job_id, None)
            if started is not None:
                sample = perf_counter() - started
                self._reservoir.add(sample)
                if sample > self.peak:
                    self.peak = sample


def _make_pool(node_count: int, seed: int):
    config = EnvironmentConfig(node_count=node_count, seed=seed)
    return EnvironmentGenerator(config).generate().slot_pool()


def _make_arrivals(jobs: int, rate: float, seed: int):
    return list(JobGenerator(seed=seed).iter_arrivals(jobs, rate=rate))


def _single_broker_counts(
    node_count: int,
    arrivals: Sequence[tuple[float, Any]],
    service: ServiceConfig,
    seed: int,
) -> dict[str, int]:
    """Reference counts from an unfederated broker on the same stream."""
    with BrokerService(_make_pool(node_count, seed), config=service) as broker:
        stats = broker.process(iter(arrivals))
    return {
        "scheduled": stats.scheduled,
        "dropped": stats.dropped,
        "rejected": stats.rejected,
        "retired": stats.retired,
    }


async def _run_one(
    shards: int,
    node_count: int,
    arrivals: Sequence[tuple[float, Any]],
    policy: str,
    service: ServiceConfig,
    seed: int,
) -> dict[str, Any]:
    """One shard count: serve over loopback, submit, drain, validate."""
    recorder = SubmitLatencyRecorder()
    validator = FederationTraceValidator()
    manager = ShardManager(
        _make_pool(node_count, seed),
        config=FederationConfig(shards=shards, policy=policy, service=service),
        sinks=[recorder, validator],
    )
    server = FederationServer(manager)
    await server.start()
    try:
        client = await FederationClient.connect(port=server.port)
        async with client:
            await client.ping()
            started = perf_counter()
            for arrival_time, job in arrivals:
                await client.submit(job, at=arrival_time)
            await client.drain()
            elapsed = perf_counter() - started
            stats = await client.stats()
            await client.shutdown()
    finally:
        await server.stop()
    # Refuse to record timings for a run whose trace breaks the laws.
    validator.check(expect_drained=True)
    latency_p50, latency_p99 = recorder.quantiles(0.50, 0.99)
    return {
        "shards": shards,
        "policy": policy,
        "jobs": len(arrivals),
        "elapsed_s": round(elapsed, 6),
        "jobs_per_s": round(len(arrivals) / elapsed, 3) if elapsed else None,
        "submit_to_schedule_s": {
            "samples": recorder.count,
            "p50": round(latency_p50, 6),
            "p99": round(latency_p99, 6),
            "max": round(recorder.peak, 6),
        },
        "frames": server.frames_served,
        "counts": {
            "federation": stats["federation"],
            "aggregate": stats["aggregate"],
        },
    }


def bench_federation(
    shard_counts: Sequence[int] = (1, 4, 16),
    jobs: int = 200,
    rate: float = 2.0,
    node_count: int = 64,
    seed: int = 2013,
    policy: str = "hash",
) -> dict[str, Any]:
    """Benchmark the federation front door across shard counts.

    Returns a JSON-ready payload.  Raises :class:`InvarianceError` when
    the 1-shard federation diverges from the single-broker reference,
    and the trace validator raises when any run's merged trace breaks a
    conservation law — either way, no timings are reported.
    """
    service = ServiceConfig(workers=1, check_invariants=False)
    arrivals = _make_arrivals(jobs, rate, seed)
    rows = []
    equivalence: Optional[dict[str, Any]] = None
    for shards in shard_counts:
        row = asyncio.run(
            _run_one(shards, node_count, arrivals, policy, service, seed)
        )
        if shards == 1 and policy == "hash":
            reference = _single_broker_counts(
                node_count, arrivals, service, seed
            )
            aggregate = row["counts"]["aggregate"]
            observed = {key: aggregate[key] for key in reference}
            if observed != reference:
                raise InvarianceError(
                    "1-shard federation diverged from the single broker: "
                    f"federation={observed} reference={reference}"
                )
            equivalence = {
                "checked": True,
                "reference": reference,
                "federation": observed,
            }
        rows.append(row)
    return {
        "benchmark": "federation",
        "config": {
            "shard_counts": list(shard_counts),
            "jobs": jobs,
            "rate": rate,
            "node_count": node_count,
            "seed": seed,
            "policy": policy,
            "workers_per_shard": service.workers,
        },
        # Server, client and every shard broker share one process; on a
        # single-CPU host the throughput column measures the host, not
        # the protocol.
        "host": host_payload(parallel_target=2),
        "single_shard_equivalence": equivalence,
        "scan_kernel": dict(scan_counters),
        "results": rows,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.federation.bench`` entry point."""
    payload = bench_federation()
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
