"""The resilience manager: applies revocations and recovery actions.

This is the mutating half of the layer (policies only decide).  The
broker hands it every sampled :class:`NodePreemption` in arrival order;
the manager finds the committed windows whose reservations the local job
tramples, emits ``REVOKED``, asks the configured
:class:`~repro.service.resilience.policies.RecoveryPolicy` and then
executes the action against the pool, the lifecycle, the queue, the
stats block and the event stream — all under the broker lock.

Accounting contract (checked by the extended
:class:`~repro.service.tracing.TraceValidator` laws):

* a revoked leg's node-seconds are *forfeited* — never released;
* a repair adds exactly the replacements' node-seconds back to the
  job's committed total and keeps the window start and node-distinctness;
* a replan/abandon releases exactly the surviving legs' node-seconds.

Retry state lives here, not in the queue: the broker's
:class:`~repro.service.queueing.BoundedJobQueue` requires nondecreasing
enqueue times, so a backoff re-enqueue "from the future" is impossible.
Instead replanned jobs wait in a min-heap keyed by their ready time and
:meth:`release_due_retries` feeds them into the queue once the virtual
clock reaches it; :meth:`next_wakeup` exposes the earliest ready time so
the broker's clock stepping (and ``drain``) never sleeps past a retry.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.model.job import Job
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import SlotPool
from repro.model.window import Window, WindowSlot, left_sum
from repro.service.events import EventEmitter, EventType
from repro.service.lifecycle import ActiveJob, JobLifecycle
from repro.service.participants import NO_TENANCY
from repro.service.queueing import BoundedJobQueue
from repro.service.resilience.config import ResilienceConfig
from repro.service.resilience.injector import NodePreemption, RevocationInjector
from repro.service.resilience.policies import (
    AbandonAction,
    RepairAction,
    ReplanAction,
    RevocationContext,
)
from repro.service.stats import ServiceStats


class ResilienceManager:
    """Owns fault injection, recovery execution and retry buffering."""

    def __init__(
        self,
        config: ResilienceConfig,
        *,
        pool: SlotPool,
        lifecycle: JobLifecycle,
        queue: BoundedJobQueue,
        stats: ServiceStats,
        emitter: EventEmitter,
        assignments: dict[str, Window],
        completion_factor: float,
        record_assignments: bool,
        tenancy=None,
    ):
        self.config = config
        self.injector = RevocationInjector(config.build_model(), seed=config.seed)
        self.policy = config.build_policy()
        self._pool = pool
        self._lifecycle = lifecycle
        self._queue = queue
        self._stats = stats
        self._emitter = emitter
        self._assignments = assignments
        self._completion_factor = completion_factor
        self._record_assignments = record_assignments
        #: Tenancy participant (the do-nothing stand-in when the layer is
        #: off): forfeits trigger partial credit refunds, replans and
        #: abandons release the remaining escrow.
        self._tenancy = NO_TENANCY if tenancy is None else tenancy
        #: (ready_at, seq, job) — jobs waiting out their replan backoff.
        self._retry_heap: list[tuple[float, int, Job]] = []
        self._retry_seq = 0
        self._retry_ids: set[str] = set()
        #: Replans granted per job id (policy input for the retry bound).
        self._retries: dict[str, int] = {}
        #: Virtual time of the revocation a pending retry recovers from.
        self._revoked_at: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Retry buffer
    # ------------------------------------------------------------------
    @property
    def pending_retries(self) -> int:
        """Replanned jobs still waiting out their backoff."""
        return len(self._retry_heap)

    def pending_ids(self) -> set[str]:
        """Ids of jobs in the retry buffer (duplicate-submission guard)."""
        return set(self._retry_ids)

    def next_wakeup(self) -> Optional[float]:
        """Earliest retry ready time, ``None`` when the buffer is empty."""
        if not self._retry_heap:
            return None
        return self._retry_heap[0][0]

    def release_due_retries(self, now: float) -> int:
        """Move every retry whose backoff has elapsed into the queue.

        A full queue drops the job (cause ``retry_queue_full``) — the
        backoff already delayed it once, and holding it longer would let
        the buffer grow without bound under sustained overload.
        Returns the number of jobs re-enqueued.
        """
        released = 0
        while self._retry_heap and self._retry_heap[0][0] <= now + TIME_EPSILON:
            _, _, job = heapq.heappop(self._retry_heap)
            self._retry_ids.discard(job.job_id)
            if self._queue.push(job, now):
                released += 1
            else:
                self._stats.dropped += 1
                self._emitter.emit(
                    EventType.DROPPED,
                    job_id=job.job_id,
                    cause="retry_queue_full",
                    deferrals=0,
                )
                self.forget(job.job_id)
        return released

    def drain_pending(self) -> list[Job]:
        """Empty the retry buffer without re-enqueueing (shard teardown).

        Returns the waiting jobs in ready-time order and forgets their
        recovery state — the caller (a federation evacuating a dead
        shard) decides their fate and emits the events.
        """
        drained: list[Job] = []
        while self._retry_heap:
            _, _, job = heapq.heappop(self._retry_heap)
            self._retry_ids.discard(job.job_id)
            self.forget(job.job_id)
            drained.append(job)
        return drained

    def on_scheduled(self, job_id: str, now: float) -> None:
        """Note that a previously revoked job landed a new window."""
        revoked_at = self._revoked_at.pop(job_id, None)
        if revoked_at is not None:
            self._stats.retried += 1
            self._stats.recovery_latency.add(now - revoked_at)

    def forget(self, job_id: str) -> None:
        """Drop per-job recovery state once the job's fate is sealed."""
        self._retries.pop(job_id, None)
        self._revoked_at.pop(job_id, None)

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def sample_interval(self, start: float, end: float) -> list[NodePreemption]:
        """Preemptions over ``[start, end)`` on the currently active nodes
        (the lifecycle's node index, read as it stands)."""
        return self.injector.sample_interval(
            start, end, self._lifecycle.active_nodes()
        )

    # ------------------------------------------------------------------
    # Revocation handling
    # ------------------------------------------------------------------
    def apply(self, hit: NodePreemption, now: float) -> None:
        """Process one local-job arrival at virtual time ``now``.

        Every active window with a leg on the hit node whose reservation
        span overlaps the local job's busy interval is compromised; each
        is revoked and recovered independently, in deterministic
        ``(window start, job id)`` order.  Only the windows on the hit
        node are examined; the list is taken before the first recovery
        changes the lifecycle.
        """
        for entry in self._lifecycle.entries_on(hit.node_id):
            revoked, surviving = self._partition(entry, hit)
            if revoked:
                self._recover(entry, revoked, surviving, now)

    def _partition(
        self, entry: ActiveJob, hit: NodePreemption
    ) -> tuple[tuple[WindowSlot, ...], tuple[WindowSlot, ...]]:
        """Split a window's legs into (revoked by ``hit``, surviving)."""
        revoked: list[WindowSlot] = []
        surviving: list[WindowSlot] = []
        start = entry.window.start
        for leg in entry.window.slots:
            span_end = start + leg.required_time
            if (
                leg.slot.node.node_id == hit.node_id
                and start < hit.busy_end - TIME_EPSILON
                and hit.arrival < span_end - TIME_EPSILON
            ):
                revoked.append(leg)
            else:
                surviving.append(leg)
        return tuple(revoked), tuple(surviving)

    def _recover(
        self,
        entry: ActiveJob,
        revoked: tuple[WindowSlot, ...],
        surviving: tuple[WindowSlot, ...],
        now: float,
    ) -> None:
        job = entry.job
        window = entry.window
        revoked_seconds = left_sum(leg.required_time for leg in revoked)
        self._stats.revocations += 1
        self._stats.legs_revoked += len(revoked)
        # Forfeits are attributed to the revoked window's owner so the
        # loss (and any credit refund) is billable per tenant.
        self._stats.record_forfeit(job.owner, revoked_seconds)
        self._emitter.emit(
            EventType.REVOKED,
            job_id=job.job_id,
            owner=job.owner,
            window_start=window.start,
            nodes=sorted(leg.slot.node.node_id for leg in revoked),
            node_seconds=revoked_seconds,
        )
        # The revoked legs' escrowed cost is partially refunded; the
        # remainder is spent (the disruption's shared cost).
        self._tenancy.on_forfeit(
            job.job_id, left_sum(leg.cost for leg in revoked), self._emitter
        )

        context = RevocationContext(
            job=job,
            window=window,
            revoked=revoked,
            surviving=surviving,
            now=now,
            retries=self._retries.get(job.job_id, 0),
            pool=self._pool,
        )
        action = self.policy.decide(context)

        if isinstance(action, RepairAction):
            self._apply_repair(entry, surviving, action, now)
        elif isinstance(action, ReplanAction):
            self._apply_replan(entry, surviving, action, now)
        else:
            assert isinstance(action, AbandonAction)
            self._apply_abandon(entry, surviving, action)

    def _apply_repair(
        self,
        entry: ActiveJob,
        surviving: tuple[WindowSlot, ...],
        action: RepairAction,
        now: float,
    ) -> None:
        window = entry.window
        repaired = Window(
            start=window.start, slots=surviving + action.replacements
        )
        # Carve the substitute reservations out of the free pool; the
        # surviving legs' time was never released, so only the new legs
        # are committed.
        self._pool.commit_window(Window(start=window.start, slots=action.replacements))
        self._lifecycle.replace(
            entry.job.job_id, repaired, completion_factor=self._completion_factor
        )
        if self._record_assignments:
            self._assignments[entry.job.job_id] = repaired
        added_seconds = left_sum(leg.required_time for leg in action.replacements)
        self._stats.repaired += 1
        self._stats.recovery_latency.add(0.0)  # repaired in place, no delay
        self._emitter.emit(
            EventType.REPAIRED,
            job_id=entry.job.job_id,
            window_start=repaired.start,
            nodes=repaired.nodes(),
            node_seconds=repaired.processor_time,
            node_seconds_added=added_seconds,
            cost=repaired.total_cost,
        )

    def _release_surviving(self, surviving: tuple[WindowSlot, ...], start: float) -> float:
        """Return the surviving legs' time to the pool; revoked legs are
        forfeited (the local job owns that node-time now)."""
        if not surviving:
            return 0.0
        self._pool.release(Window(start=start, slots=surviving))
        return left_sum(leg.required_time for leg in surviving)

    def _apply_replan(
        self,
        entry: ActiveJob,
        surviving: tuple[WindowSlot, ...],
        action: ReplanAction,
        now: float,
    ) -> None:
        job_id = entry.job.job_id
        released = self._release_surviving(surviving, entry.window.start)
        self._lifecycle.cancel(job_id)
        self._assignments.pop(job_id, None)
        retries = self._retries.get(job_id, 0) + 1
        self._retries[job_id] = retries
        self._revoked_at[job_id] = now
        self._retry_seq += 1
        heapq.heappush(
            self._retry_heap, (action.ready_at, self._retry_seq, entry.job)
        )
        self._retry_ids.add(job_id)
        self._stats.replanned += 1
        self._emitter.emit(
            EventType.REPLANNED,
            job_id=job_id,
            released_node_seconds=released,
            retries=retries,
            ready_at=action.ready_at,
        )
        # The window is gone without running: the rest of the escrow
        # flows back (the job will pay afresh when it lands again).
        self._tenancy.on_release(job_id, self._emitter)

    def _apply_abandon(
        self,
        entry: ActiveJob,
        surviving: tuple[WindowSlot, ...],
        action: AbandonAction,
    ) -> None:
        job_id = entry.job.job_id
        released = self._release_surviving(surviving, entry.window.start)
        self._lifecycle.cancel(job_id)
        self._assignments.pop(job_id, None)
        self._stats.abandoned += 1
        self._emitter.emit(
            EventType.ABANDONED,
            job_id=job_id,
            cause=action.cause,
            released_node_seconds=released,
        )
        self._tenancy.on_release(job_id, self._emitter)
        self.forget(job_id)
