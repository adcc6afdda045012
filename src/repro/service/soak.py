"""Soak benchmark: 10^5 jobs through a rolling-horizon broker.

The long-running counterpart of the ``perf/`` harness's short
``soak_poisson`` episodes: a Poisson stream of jobs is driven through one broker whose pool is fed by
a :class:`~repro.environment.RollingHorizonSource`, so virtual time
crosses hundreds of horizon segments while ``trim_before`` keeps the
pool inside a bounded window.  The run exists to prove two properties a
short benchmark cannot:

* **flat memory** — every structure a cycle touches is bounded (windowed
  latency trackers, reservoir samplers, the rolling pool itself), so RSS
  after two hundred intervals matches RSS after twenty;
* **stable latency** — the incremental columnar maintenance keeps
  snapshot cost independent of run length, so p99 cycle latency in the
  last decile of cycles matches the first decile.

Four refuse-to-record gates (:class:`SoakGateError`) keep the payload
honest:

1. RSS growth between the first and last decile of samples must stay
   under ``max_rss_ratio``;
2. last-decile p99 cycle latency must stay within ``max_p99_ratio`` of
   the first decile;
3. the periodically sampled incremental-snapshot cost must beat a
   cold per-cycle columnar rebuild by at least ``min_speedup``;
4. the scan kernel must actually have dispatched vectorized (a silent
   object-loop fallback run records nothing).
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter
from typing import Any, Optional, Sequence

from repro.core.algorithms.csa import CSA
from repro.environment.generator import EnvironmentConfig
from repro.environment.rolling import HorizonConfig, RollingHorizonSource
from repro.hostinfo import host_payload
from repro.model.slotarrays import SlotArrays
from repro.model.slotpool import SlotPool, _clamp
from repro.scheduling.metascheduler import BatchScheduler
from repro.service.broker import BrokerService
from repro.service.config import ServiceConfig
from repro.service.events import Event, EventSink, EventType
from repro.service.stats import percentile
from repro.simulation.jobgen import JobGenerator


class SoakGateError(RuntimeError):
    """A refuse-to-record gate failed; no numbers are reported."""


def _rss_bytes() -> int:
    """Resident set size from ``/proc/self/statm`` (0 where unavailable)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return 0


class _CycleProbe(EventSink):
    """Collects every cycle's wall latency (one float per cycle).

    The broker's own :class:`~repro.service.stats.LatencyTracker` keeps a
    sliding window by design; the first-vs-last-decile gate needs the
    *whole* series, which is bounded by cycle count (~jobs / batch_size
    floats), not job count.
    """

    def __init__(self) -> None:
        self.wall_seconds: list[float] = []

    def emit(self, event: Event) -> None:
        if event.type is EventType.CYCLE_END:
            self.wall_seconds.append(float(event.fields["wall_cycle_seconds"]))


def _decile_split(series: Sequence[float]) -> tuple[list[float], list[float]]:
    """First and last tenth of a series (at least one element each)."""
    width = max(1, len(series) // 10)
    return list(series[:width]), list(series[-width:])


def bench_soak(
    jobs: int = 100_000,
    node_count: int = 200,
    rate: float = 0.8,
    seed: int = 2013,
    lead: float = 600.0,
    stride: float = 600.0,
    batch_size: int = 8,
    amp_policy: str = "cheapest",
    sample_every: int = 64,
    warmup_fraction: float = 0.1,
    min_speedup: float = 5.0,
    max_p99_ratio: float = 1.2,
    max_rss_ratio: float = 1.2,
) -> dict[str, Any]:
    """Drive ``jobs`` arrivals through a rolling-horizon broker and gate.

    Returns a JSON-ready payload; raises :class:`SoakGateError` when any
    refuse-to-record gate fails.  The defaults cross ``jobs / rate /
    stride`` ≈ 200 horizon segments — hundreds of rolling intervals, the
    regime where a leak or an O(run-length) snapshot cost would show.

    ``amp_policy`` defaults to ``"cheapest"``, the AMP variant the
    committed baseline was recorded with; under either policy CSA
    collects a job's alternatives from one sweep of the cycle's
    snapshot (the paper-faithful ``"first"`` eviction scan restarts
    from per-step checkpoints instead of continuing).  The first
    ``warmup_fraction`` of cycles is excluded from the stability gates:
    the broker starts on an empty pool and ramps to its steady-state
    active-job population over the first few dozen cycles, a one-time
    transient that would otherwise read as drift.
    """
    from repro.core.vectorized import scan_counters

    config = EnvironmentConfig(node_count=node_count, seed=seed)
    source = RollingHorizonSource(config, HorizonConfig(lead=lead, stride=stride))
    service = ServiceConfig(batch_size=batch_size, check_invariants=False)
    scheduler = BatchScheduler(
        search=CSA(
            max_alternatives=service.alternatives_per_job, amp_policy=amp_policy
        ),
        criterion=service.criterion,
        alternatives_per_job=service.alternatives_per_job,
    )
    probe = _CycleProbe()
    pool = SlotPool()
    scan_before = dict(scan_counters)

    rss_samples: list[int] = []
    incremental_seconds = 0.0
    rebuild_seconds = 0.0
    snapshot_samples = 0
    pool_sizes: list[int] = []

    arrivals = JobGenerator(seed=seed).iter_arrivals(jobs, rate=rate)
    started = perf_counter()
    broker = BrokerService(
        pool,
        config=service,
        scheduler=scheduler,
        sinks=[probe],
        horizon_source=source,
    )
    next_probe = sample_every
    for arrival_time, job in arrivals:
        broker.advance_to(arrival_time)
        broker.submit(job)
        broker.pump()
        if broker.stats.cycles >= next_probe:
            next_probe = broker.stats.cycles + sample_every
            rss_samples.append(_rss_bytes())
            pool_sizes.append(len(pool))
            # Paired sample of the snapshot comparison: the store's
            # catch-up on the edits since the last read (its splice of
            # the pool's entry list included) plus the snapshot built
            # on it and clamped to the floor — what a cycle pays after
            # mutations — against the cold per-slot rebuild it
            # replaced.  The store and the clamp are the model's own
            # internals — the probe bypasses the pool's snapshot cache
            # on purpose, since a cached hit times nothing.
            tick = perf_counter()
            SlotArrays.from_slots(list(pool))
            rebuild_seconds += perf_counter() - tick
            tick = perf_counter()
            _clamp(pool._store.snapshot(), pool._floor, {})
            incremental_seconds += perf_counter() - tick
            snapshot_samples += 1
    broker.drain()
    stats = broker.stats
    final_time = broker.now
    elapsed = perf_counter() - started

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    cycles = probe.wall_seconds
    if len(cycles) < 20 or snapshot_samples < 2 or len(rss_samples) < 2:
        raise SoakGateError(
            f"run too short to gate: {len(cycles)} cycles, "
            f"{snapshot_samples} snapshot samples — raise jobs or lower "
            f"sample_every"
        )
    warmup_cycles = int(len(cycles) * warmup_fraction)
    steady = cycles[warmup_cycles:]
    steady_rss = rss_samples[int(len(rss_samples) * warmup_fraction):]
    first_cycles, last_cycles = _decile_split(steady)
    p99_first = percentile(first_cycles, 0.99)
    p99_last = percentile(last_cycles, 0.99)
    p99_ratio = p99_last / p99_first if p99_first > 0 else float("inf")
    if p99_ratio > max_p99_ratio:
        raise SoakGateError(
            f"p99 cycle latency drifted: first decile {p99_first * 1e3:.3f}ms "
            f"-> last decile {p99_last * 1e3:.3f}ms "
            f"({p99_ratio:.2f}x > {max_p99_ratio}x)"
        )
    first_rss, last_rss = _decile_split(steady_rss)
    rss_first = sum(first_rss) / len(first_rss)
    rss_last = sum(last_rss) / len(last_rss)
    rss_ratio = rss_last / rss_first if rss_first > 0 else float("inf")
    if rss_ratio > max_rss_ratio:
        raise SoakGateError(
            f"RSS grew: first decile {rss_first / 1e6:.1f}MB -> last decile "
            f"{rss_last / 1e6:.1f}MB ({rss_ratio:.2f}x > {max_rss_ratio}x)"
        )
    snapshot_speedup = (
        rebuild_seconds / incremental_seconds
        if incremental_seconds > 0
        else float("inf")
    )
    if snapshot_speedup < min_speedup:
        raise SoakGateError(
            f"incremental snapshot only {snapshot_speedup:.2f}x faster than "
            f"a per-cycle rebuild (gate {min_speedup}x) over "
            f"{snapshot_samples} paired samples"
        )
    scan_delta = {
        key: scan_counters[key] - scan_before.get(key, 0) for key in scan_counters
    }
    if scan_delta.get("vectorized", 0) <= 0:
        raise SoakGateError(
            f"scan kernel never dispatched vectorized during the soak: "
            f"{scan_delta}"
        )

    return {
        "benchmark": "soak",
        "config": {
            "jobs": jobs,
            "node_count": node_count,
            "rate": rate,
            "seed": seed,
            "lead": lead,
            "stride": stride,
            "batch_size": batch_size,
            "criterion": service.criterion.value,
            "amp_policy": amp_policy,
            "sample_every": sample_every,
            "warmup_fraction": warmup_fraction,
        },
        "gates": {
            "min_speedup": min_speedup,
            "max_p99_ratio": max_p99_ratio,
            "max_rss_ratio": max_rss_ratio,
            "warmup_cycles_excluded": warmup_cycles,
        },
        "host": host_payload(parallel_target=1),
        "elapsed_s": round(elapsed, 3),
        "jobs_per_s": round(jobs / elapsed, 1) if elapsed else None,
        "virtual": {
            "final_time": round(final_time, 3),
            "segments_published": source.segments_published,
            "slots_published": stats.slots_published,
            "pool_size_mean": (
                round(sum(pool_sizes) / len(pool_sizes), 1) if pool_sizes else 0.0
            ),
            "pool_size_max": max(pool_sizes) if pool_sizes else 0,
        },
        "counts": {
            "submitted": stats.submitted,
            "admitted": stats.admitted,
            "rejected": stats.rejected,
            "scheduled": stats.scheduled,
            "dropped": stats.dropped,
            "retired": stats.retired,
            "cycles": stats.cycles,
        },
        "cycle_latency_ms": {
            "p99_first_decile": round(p99_first * 1e3, 3),
            "p99_last_decile": round(p99_last * 1e3, 3),
            "p99_ratio": round(p99_ratio, 3),
            "p50_overall": round(percentile(cycles, 0.50) * 1e3, 3),
            "p99_overall": round(percentile(cycles, 0.99) * 1e3, 3),
        },
        "rss_mb": {
            "first_decile": round(rss_first / 1e6, 1),
            "last_decile": round(rss_last / 1e6, 1),
            "ratio": round(rss_ratio, 3),
            "samples": len(rss_samples),
        },
        "snapshot": {
            "samples": snapshot_samples,
            "incremental_us_mean": round(
                incremental_seconds / snapshot_samples * 1e6, 2
            ),
            "rebuild_us_mean": round(rebuild_seconds / snapshot_samples * 1e6, 2),
            "speedup": round(snapshot_speedup, 2),
        },
        "scan_kernel": scan_delta,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.service.soak`` entry point."""
    payload = bench_soak()
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
