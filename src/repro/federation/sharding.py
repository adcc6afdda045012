"""The shard manager: N brokers, one pool partition, one shared clock.

This is the federation's control plane.  The environment's node set is
partitioned round-robin into per-shard :class:`~repro.model.SlotPool`\\ s
(whole nodes, never split slots — a node's free time belongs to exactly
one shard, so per-node disjointness survives partitioning trivially) and
each shard runs the *unchanged* :class:`~repro.service.BrokerService`
lifecycle: admission, size-or-deadline cycle batching, retirement,
optional resilience.

The manager drives every live shard on one shared virtual clock by
stepping to the minimum of the shards' ``next_event_time()``\\ s, so no
shard ever skips a due cycle, completion or retry wake-up.  Intake goes
through a :class:`~repro.federation.router.PlacementPolicy`: shards are
offered the job in policy order until one admits it; when all reject for
capacity or budget, the cross-shard
:class:`~repro.federation.coallocation.CoAllocator` gets one attempt.

Tracing: shard brokers emit through a :class:`ShardTagSink` that
re-sequences their events onto the federation emitter with a
``shard_id`` payload field, so one merged JSONL trace carries both tiers
and :class:`~repro.federation.tracing.FederationTraceValidator` can
demultiplex it back.  Federation-level events (ROUTED, COALLOCATED,
SHARD_LOST, and the intake tier's own SUBMITTED/REJECTED/...) carry no
``shard_id``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.federation.coallocation import CoAllocation, CoAllocator
from repro.federation.config import FederationConfig
from repro.federation.router import PlacementPolicy, make_policy
from repro.model.errors import ConfigurationError, SchedulingError
from repro.model.job import Job
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import SlotPool
from repro.service.admission import RejectionReason
from repro.service.broker import BrokerService
from repro.service.events import Event, EventEmitter, EventSink, EventType
from repro.service.stats import ServiceStats


def partition_nodes(node_ids: Sequence[int], shards: int) -> list[list[int]]:
    """Deal the (sorted) node ids round-robin across ``shards`` groups.

    Round-robin over the sorted ids interleaves the environment's
    performance/price spectrum across shards instead of giving shard 0
    all the low ids, so shard capacity profiles stay comparable.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    ordered = sorted(node_ids)
    if len(set(ordered)) != len(ordered):
        raise ConfigurationError("node ids must be unique")
    if len(ordered) < shards:
        raise ConfigurationError(
            f"cannot split {len(ordered)} nodes across {shards} shards"
        )
    return [list(ordered[index::shards]) for index in range(shards)]


def partition_pool(
    pool: SlotPool, assignments: Sequence[Sequence[int]]
) -> list[SlotPool]:
    """Split a pool into per-shard pools along a node assignment.

    Every slot lands verbatim (no coalescing — the source pool is
    already canonical) in the pool of the shard owning its node, so the
    shard pools are a *partition*: total node-seconds are conserved and
    each node's slots move wholly to one shard.  Property-tested in
    ``tests/federation/test_sharding.py``.
    """
    shard_of: dict[int, int] = {}
    for shard_id, node_ids in enumerate(assignments):
        for node_id in node_ids:
            if node_id in shard_of:
                raise ConfigurationError(
                    f"node {node_id} assigned to two shards"
                )
            shard_of[node_id] = shard_id
    pools = [
        SlotPool(min_usable_length=pool.min_usable_length)
        for _ in assignments
    ]
    for slot in pool:
        shard_id = shard_of.get(slot.node.node_id)
        if shard_id is None:
            raise ConfigurationError(
                f"slot on node {slot.node.node_id} has no shard assignment"
            )
        pools[shard_id].add(slot, coalesce=False)
    return pools


class ShardTagSink(EventSink):
    """Forwards a shard broker's events into the federation emitter.

    Each event is re-stamped onto the federation's shared sequence
    counter with the ``shard_id`` payload field merged in (see
    :meth:`~repro.service.events.EventEmitter.ingest`), which is what
    lets one merged trace be demultiplexed back into per-shard streams.
    """

    def __init__(self, emitter: EventEmitter, shard_id: int):
        self._emitter = emitter
        self.shard_id = shard_id

    def emit(self, event: Event) -> None:
        self._emitter.ingest(event, shard_id=self.shard_id)


@dataclass
class Shard:
    """One partition member: its broker, its nodes, and liveness."""

    shard_id: int
    broker: BrokerService
    node_ids: tuple[int, ...]
    alive: bool = True


@dataclass
class FederationStats:
    """Intake-tier counters (per-shard counters live in each broker)."""

    submitted: int = 0
    routed: int = 0
    rerouted: int = 0
    coallocated: int = 0
    coalloc_retired: int = 0
    rejected: int = 0
    dropped: int = 0
    shard_losses: int = 0
    rejected_by_reason: dict[str, int] = field(default_factory=dict)

    def record_rejection(self, reason: str) -> None:
        self.rejected += 1
        self.rejected_by_reason[reason] = (
            self.rejected_by_reason.get(reason, 0) + 1
        )


@dataclass(frozen=True)
class FederationDecision:
    """Outcome of one federation-level submission."""

    admitted: bool
    shard_id: Optional[int] = None
    shard_ids: tuple[int, ...] = ()
    coallocated: bool = False
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.admitted


class ShardManager:
    """Partitions the pool, routes intake, and drives the shared clock.

    Parameters
    ----------
    pool:
        The whole environment pool; it is consumed into per-shard pools
        (the manager owns the partition, callers must not keep mutating
        the original).
    config:
        Federation knobs; the embedded service config is shared by every
        shard broker.
    sinks:
        Federation-level event consumers.  When empty, shard brokers run
        entirely untraced (no tag sinks are attached), so an untraced
        federation pays nothing for the event layer.  Sinks must be
        passed at construction — shard brokers wire their tag sinks once.
    clock_start:
        Initial shared virtual time.
    """

    def __init__(
        self,
        pool: SlotPool,
        config: Optional[FederationConfig] = None,
        sinks: Sequence[EventSink] = (),
        clock_start: float = 0.0,
    ):
        self.config = config if config is not None else FederationConfig()
        self._now = clock_start
        self.events = EventEmitter(sinks, clock=lambda: self._now)
        # One tenancy manager shared by every shard broker and the
        # co-allocator: tenants hold a single federation-wide credit
        # account and DRF share, not one per shard.  Imported lazily so
        # a tenancy-free federation never loads the package.
        self._tenancy = None
        if self.config.service.tenancy is not None:
            from repro.tenancy.manager import TenancyManager

            self._tenancy = TenancyManager(self.config.service.tenancy)
        node_ids = sorted(pool.by_node())
        assignments = partition_nodes(node_ids, self.config.shards)
        pools = partition_pool(pool, assignments)
        self.shards: list[Shard] = []
        self._node_shard: dict[int, int] = {}
        for shard_id, (ids, shard_pool) in enumerate(zip(assignments, pools)):
            broker_sinks: list[EventSink] = (
                [ShardTagSink(self.events, shard_id)]
                if self.events.enabled
                else []
            )
            broker = BrokerService(
                shard_pool,
                config=self.config.service,
                clock_start=clock_start,
                sinks=broker_sinks,
                tenancy=self._tenancy,
            )
            self.shards.append(
                Shard(shard_id=shard_id, broker=broker, node_ids=tuple(ids))
            )
            for node_id in ids:
                self._node_shard[node_id] = shard_id
        self.router: PlacementPolicy = make_policy(
            self.config.policy, self.config.service.criterion
        )
        self._coalloc: Optional[CoAllocator] = (
            CoAllocator(
                self.config.service, tenancy=self._tenancy, emitter=self.events
            )
            if self.config.coallocation
            else None
        )
        self.stats = FederationStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current shared virtual time."""
        return self._now

    @property
    def coallocator(self) -> Optional[CoAllocator]:
        """The cross-shard fallback, or ``None`` when disabled."""
        return self._coalloc

    @property
    def tenancy(self):
        """The shared tenancy manager, or ``None`` when the layer is off."""
        return self._tenancy

    def live_shards(self) -> list[Shard]:
        """Shards still alive, ascending shard id."""
        return [shard for shard in self.shards if shard.alive]

    def _live_pools(self) -> dict[int, SlotPool]:
        return {
            shard.shard_id: shard.broker.pool for shard in self.live_shards()
        }

    def locate(self, job_id: str) -> Optional[dict[str, object]]:
        """Where a job currently lives, ``None`` when unknown.

        Returns ``{"state": "shard", "shard": id}`` for jobs owned by a
        shard broker (queued, active or retry-pending) and
        ``{"state": "coallocated", "shards": [...]}`` for cross-shard
        windows.
        """
        for shard in self.live_shards():
            if job_id in shard.broker.in_flight_ids():
                return {"state": "shard", "shard": shard.shard_id}
        if self._coalloc is not None:
            entry = self._coalloc.get(job_id)
            if entry is not None:
                return {"state": "coallocated", "shards": entry.shard_ids}
        return None

    def stats_snapshot(self) -> dict[str, object]:
        """Intake counters plus per-shard stats and their aggregate.

        ``scan_kernel`` carries the vectorized kernel's dispatch
        telemetry (process-wide — the shard brokers of one manager share
        the dispatch table), so ``stats`` wire-op clients can assert the
        hot path ran vectorized without shelling into the server.
        """
        from repro.core.vectorized import scan_counters

        aggregate = {
            "submitted": 0,
            "admitted": 0,
            "rejected": 0,
            "scheduled": 0,
            "dropped": 0,
            "retired": 0,
        }
        per_shard: list[dict[str, object]] = []
        for shard in self.shards:
            stats: ServiceStats = shard.broker.stats
            per_shard.append(
                {
                    "shard": shard.shard_id,
                    "alive": shard.alive,
                    "nodes": len(shard.node_ids),
                    "submitted": stats.submitted,
                    "admitted": stats.admitted,
                    "rejected": stats.rejected,
                    "scheduled": stats.scheduled,
                    "dropped": stats.dropped,
                    "retired": stats.retired,
                    "cycles": stats.cycles,
                    "queue_depth": stats.queue_depth,
                    "active_jobs": stats.active_jobs,
                }
            )
            for key in aggregate:
                aggregate[key] += int(per_shard[-1][key])
        snapshot: dict[str, object] = {
            "now": self._now,
            "policy": self.router.name,
            "federation": {
                "submitted": self.stats.submitted,
                "routed": self.stats.routed,
                "rerouted": self.stats.rerouted,
                "coallocated": self.stats.coallocated,
                "coalloc_retired": self.stats.coalloc_retired,
                "coalloc_active": (
                    self._coalloc.active_count
                    if self._coalloc is not None
                    else 0
                ),
                "rejected": self.stats.rejected,
                "rejected_by_reason": dict(self.stats.rejected_by_reason),
                "dropped": self.stats.dropped,
                "shard_losses": self.stats.shard_losses,
            },
            "scan_kernel": dict(scan_counters),
            "shards": per_shard,
            "aggregate": aggregate,
        }
        if self._tenancy is not None:
            snapshot["tenancy"] = self._tenancy.snapshot()
        return snapshot

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def _offer(
        self, job: Job, rerouted_from: Optional[int] = None
    ) -> tuple[Optional[Shard], list[RejectionReason]]:
        """Offer a job to the live shards in router order.

        Returns the admitting shard (after tracing ROUTED) or ``None``
        with the rejection reasons collected along the way.
        """
        reasons: list[RejectionReason] = []
        for shard in self.router.order(job, self.live_shards()):
            decision = shard.broker.submit(job)
            if decision.admitted:
                fields: dict[str, object] = {
                    "shard": shard.shard_id,
                    "policy": self.router.name,
                }
                if rerouted_from is not None:
                    fields["rerouted_from"] = rerouted_from
                self.events.emit(EventType.ROUTED, job_id=job.job_id, **fields)
                return shard, reasons
            assert decision.reason is not None
            reasons.append(decision.reason)
            if decision.reason is RejectionReason.DUPLICATE_ID:
                # The id is already owned by that shard; trying further
                # shards would fork the job.
                break
        return None, reasons

    _COALLOC_REASONS = frozenset(
        {RejectionReason.TOO_FEW_NODES, RejectionReason.BUDGET_INFEASIBLE}
    )

    def _try_coallocate(self, job: Job) -> Optional[CoAllocation]:
        """One cross-shard attempt; traces COALLOCATED on success."""
        if self._coalloc is None:
            return None
        entry = self._coalloc.try_place(job, self._live_pools(), self._now)
        if entry is None:
            return None
        window_legs = list(entry.legs.values())
        self.events.emit(
            EventType.COALLOCATED,
            job_id=job.job_id,
            shards=entry.shard_ids,
            node_seconds=entry.committed_node_seconds,
            window_start=window_legs[0].start,
            completes_at=entry.completes_at,
        )
        self.stats.coallocated += 1
        return entry

    def submit(self, job: Job) -> FederationDecision:
        """Route one job: shards in policy order, then the co-allocator.

        The federation runs its own duplicate check across every shard
        and the co-allocation ledger *before* offering the job anywhere,
        so an id in flight on shard A is rejected instead of forked onto
        shard B.
        """
        self.stats.submitted += 1
        self.events.emit(EventType.SUBMITTED, job_id=job.job_id)
        if self.locate(job.job_id) is not None:
            reason = RejectionReason.DUPLICATE_ID.value
            self.events.emit(
                EventType.REJECTED, job_id=job.job_id, reason=reason
            )
            self.stats.record_rejection(reason)
            return FederationDecision(admitted=False, reason=reason)
        if not self.live_shards():
            self.events.emit(
                EventType.REJECTED, job_id=job.job_id, reason="no_live_shards"
            )
            self.stats.record_rejection("no_live_shards")
            return FederationDecision(admitted=False, reason="no_live_shards")
        shard, reasons = self._offer(job)
        if shard is not None:
            self.stats.routed += 1
            return FederationDecision(admitted=True, shard_id=shard.shard_id)
        if self._COALLOC_REASONS.intersection(reasons):
            entry = self._try_coallocate(job)
            if entry is not None:
                return FederationDecision(
                    admitted=True,
                    shard_ids=tuple(entry.shard_ids),
                    coallocated=True,
                )
        reason = reasons[0].value if reasons else "no_live_shards"
        self.events.emit(EventType.REJECTED, job_id=job.job_id, reason=reason)
        self.stats.record_rejection(reason)
        return FederationDecision(admitted=False, reason=reason)

    def cancel(self, job_id: str) -> bool:
        """Withdraw a queued job from whichever shard holds it.

        Scheduled and co-allocated jobs are past cancellation — their
        windows are committed — matching the single broker's contract.
        """
        for shard in self.live_shards():
            if shard.broker.cancel(job_id):
                return True
        return False

    # ------------------------------------------------------------------
    # Shared clock
    # ------------------------------------------------------------------
    def _next_event_time(self, horizon: float) -> Optional[float]:
        """Earliest pending event across shards and co-allocations."""
        candidates: list[float] = []
        for shard in self.live_shards():
            due = shard.broker.next_event_time()
            if due is not None and due <= horizon + TIME_EPSILON:
                candidates.append(due)
        if self._coalloc is not None:
            completion = self._coalloc.next_completion()
            if completion is not None and completion <= horizon + TIME_EPSILON:
                candidates.append(completion)
        if not candidates:
            return None
        return min(candidates)

    def _retire_coallocations(self) -> None:
        """Release completed cross-shard windows back to their shards."""
        if self._coalloc is None:
            return
        for entry in self._coalloc.release_due(self._live_pools(), self._now):
            self.events.emit(
                EventType.RETIRED,
                job_id=entry.job.job_id,
                completed_at=entry.completes_at,
                released_node_seconds=entry.committed_node_seconds,
                shards=entry.shard_ids,
            )
            self.stats.coalloc_retired += 1

    def _step_to(self, target: float) -> int:
        """Move every live shard (and the co-alloc ledger) to ``target``."""
        self._now = max(self._now, target)
        ran = 0
        for shard in self.live_shards():
            ran += shard.broker.advance_to(self._now)
        self._retire_coallocations()
        return ran

    def advance_to(self, now: float) -> int:
        """Advance the shared clock, stepping shards in lockstep.

        Between the current time and ``now`` the clock stops at every
        shard's next due cycle / completion / retry wake-up and at every
        co-allocation completion, so cross-shard event order is the
        global virtual-time order regardless of how coarsely the caller
        steps.  Returns the number of shard cycles run.
        """
        if now < self._now - TIME_EPSILON:
            raise SchedulingError(
                f"virtual clock must be monotone: at {self._now}, got {now}"
            )
        ran = 0
        for _ in range(1_000_000):
            due = self._next_event_time(now)
            if due is None:
                break
            ran += self._step_to(due)
        else:  # pragma: no cover - defensive
            raise SchedulingError("advance_to did not converge")
        ran += self._step_to(now)
        return ran

    def pump(self) -> int:
        """Run every shard cycle due at the current time."""
        ran = 0
        for shard in self.live_shards():
            ran += shard.broker.pump()
        return ran

    def is_idle(self) -> bool:
        """Whether no shard owns work and no co-allocation is active."""
        if self._coalloc is not None and self._coalloc.active_count > 0:
            return False
        return all(shard.broker.is_idle for shard in self.live_shards())

    def drain(self, max_steps: int = 100_000) -> float:
        """Run until every live shard is idle; returns the final time."""
        for _ in range(max_steps):
            if self.is_idle():
                return self._now
            due = self._next_event_time(float("inf"))
            if due is None:  # pragma: no cover - defensive
                raise SchedulingError(
                    "federation is not idle but no shard has a pending event"
                )
            self._step_to(due)
        raise SchedulingError(f"drain() did not converge within {max_steps} steps")

    def process(self, arrivals: Iterable[tuple[float, Job]]) -> FederationStats:
        """Feed a timed arrival stream through the federation and drain."""
        for arrival_time, job in arrivals:
            self.advance_to(arrival_time)
            self.submit(job)
            self.pump()
        self.drain()
        return self.stats

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _resettle(self, job: Job, lost_shard: int) -> bool:
        """Re-route one evacuated job; DROPPED (traced) when impossible."""
        if self.live_shards():
            shard, reasons = self._offer(job, rerouted_from=lost_shard)
            if shard is not None:
                self.stats.rerouted += 1
                return True
            if self._COALLOC_REASONS.intersection(reasons):
                entry = self._try_coallocate(job)
                if entry is not None:
                    self.stats.rerouted += 1
                    return True
        self.events.emit(
            EventType.DROPPED,
            job_id=job.job_id,
            cause="shard_lost",
            shard=lost_shard,
        )
        self.stats.dropped += 1
        return False

    def kill_shard(self, shard_id: int) -> list[Job]:
        """Take one shard down, evacuating and re-routing its jobs.

        The dead broker's queue, retry buffer and active windows are
        evacuated (traced shard-side as DROPPED / REVOKED+ABANDONED);
        co-allocations with a leg on the shard are torn down, surviving
        legs released to their live shards.  Every displaced job is then
        re-offered to the surviving shards — or DROPPED at the
        federation level with cause ``shard_lost`` — so no admitted job
        silently disappears.  Returns the evacuated jobs.
        """
        if not 0 <= shard_id < len(self.shards):
            raise ConfigurationError(f"no shard {shard_id}")
        shard = self.shards[shard_id]
        if not shard.alive:
            raise SchedulingError(f"shard {shard_id} is already dead")
        shard.alive = False
        self.stats.shard_losses += 1
        evacuated = shard.broker.evacuate(cause="shard_lost")
        self.events.emit(
            EventType.SHARD_LOST,
            shard=shard_id,
            evacuated=len(evacuated),
            nodes=list(shard.node_ids),
        )
        displaced = list(evacuated)
        if self._coalloc is not None:
            for entry, released, forfeited in self._coalloc.fail_shard(
                shard_id, self._live_pools()
            ):
                self.events.emit(
                    EventType.REVOKED,
                    job_id=entry.job.job_id,
                    cause="shard_lost",
                    shard=shard_id,
                    node_seconds=forfeited,
                    released_node_seconds=released,
                )
                displaced.append(entry.job)
        for job in displaced:
            self._resettle(job, shard_id)
        return evacuated
