"""Cross-shard co-allocation: one window composed from several pools.

The fallback path of "Towards General Distributed Resource Selection":
when no single autonomous pool can host a job — too few matching nodes,
or a budget only met by combining the cheap nodes of several pools — a
window is searched over the *union* of the live shard pools and then
committed shard by shard.  The union is one snapshot merged from the
shards' own (:func:`~repro.model.slotpool.merge_snapshots`), each
clamped to its shard's floor on read: a search builds no pool and
edits no shard.

The commit is two-phase in the transactional sense: every leg group is
cut from its shard's pool in deterministic shard order, and the first
failure rolls back every already-committed group via
:meth:`~repro.model.SlotPool.release` before reporting the attempt as
failed.  Partial commits therefore never leak node-seconds — the
property the federation trace laws (released + forfeited <= committed)
verify end to end.

The co-allocator keeps its own virtual-clock ledger of active entries:
legs are released back to their shards at the window's completion time,
and a shard death forfeits exactly the dead shard's legs while the
surviving legs flow back to their (still live) pools.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.core.algorithms.csa import CSA
from repro.model.errors import AllocationError
from repro.model.job import Job, JobBatch
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import SlotPool, merge_snapshots
from repro.model.window import Window, WindowSlot
from repro.scheduling.metascheduler import BatchScheduler
from repro.service.config import ServiceConfig
from repro.service.participants import NO_TENANCY


@dataclass(frozen=True)
class CoAllocation:
    """One committed cross-shard window.

    ``legs`` maps each participating shard id to the sub-window (same
    start, that shard's legs only) cut from its pool; releasing every
    sub-window restores exactly what the commit took.
    """

    job: Job
    legs: dict[int, Window]
    committed_node_seconds: float
    scheduled_at: float
    completes_at: float

    @property
    def shard_ids(self) -> list[int]:
        """Participating shards, ascending."""
        return sorted(self.legs)


class CoAllocator:
    """Searches, commits and retires cross-shard windows."""

    def __init__(self, service: ServiceConfig, *, tenancy=None, emitter=None):
        # Union planning goes through BatchScheduler.find_alternatives,
        # i.e. the class-grouped phase-1 entry point: multi-job batches
        # (future work) collapse to one search per request class.
        self._scheduler = BatchScheduler(
            search=CSA(max_alternatives=service.alternatives_per_job),
            criterion=service.criterion,
            alternatives_per_job=service.alternatives_per_job,
        )
        self._completion_factor = service.completion_factor
        #: Shared tenancy manager (the federation's, so shard brokers and
        #: cross-shard windows debit one ledger) and the federation
        #: emitter the credit events go to.  Without one the stand-in
        #: keeps the co-allocator credit-free and byte-identical.
        self._tenancy = NO_TENANCY if tenancy is None else tenancy
        self._emitter = emitter
        self._active: dict[str, CoAllocation] = {}

    # ------------------------------------------------------------------
    # Ledger introspection
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Committed cross-shard windows not yet completed."""
        return len(self._active)

    def active_ids(self) -> set[str]:
        """Job ids currently holding a cross-shard window."""
        return set(self._active)

    def get(self, job_id: str) -> Optional[CoAllocation]:
        """The active entry for ``job_id``, or ``None``."""
        return self._active.get(job_id)

    def next_completion(self) -> Optional[float]:
        """Earliest completion among active entries, ``None`` when idle."""
        if not self._active:
            return None
        return min(entry.completes_at for entry in self._active.values())

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def try_place(
        self, job: Job, pools: Mapping[int, SlotPool], now: float
    ) -> Optional[CoAllocation]:
        """Search the union of ``pools`` and two-phase-commit the window.

        Returns the committed entry, or ``None`` when no feasible window
        exists — or when a commit leg fails, in which case every leg
        already cut has been released again (zero leaked node-seconds).

        The search reads each shard's snapshot as it stands, clamped to
        the shard's floor, and edits no shard.
        """
        if not pools:
            return None
        parts = {shard_id: pools[shard_id].as_arrays() for shard_id in sorted(pools)}
        union = merge_snapshots(list(parts.values()))
        # As in the broker cycle, the union search sees live prices
        # through a request whose budget and price cap are scaled.
        multiplier = self._tenancy.price_multiplier
        request = self._tenancy.live_request(job.request, multiplier)
        batch = JobBatch()
        batch.add(replace(job, request=request))
        report = self._scheduler.plan(batch, union)
        window = report.scheduled.get(job.job_id)
        if window is None:
            return None

        node_shard = {
            node_id: shard_id
            for shard_id, arrays in parts.items()
            for node_id in arrays.node_id.tolist()
        }
        by_shard: dict[int, list[WindowSlot]] = {}
        for ws in window.slots:
            by_shard.setdefault(node_shard[ws.slot.node.node_id], []).append(ws)
        legs: dict[int, Window] = {}
        try:
            for shard_id in sorted(by_shard):
                sub = Window(start=window.start, slots=tuple(by_shard[shard_id]))
                pools[shard_id].commit_window(sub)
                legs[shard_id] = sub
        except AllocationError:
            placed = False
        else:
            placed = self._tenancy.charge_commit(
                job, window, self._emitter, multiplier=multiplier
            )
        if not placed:
            # A failed leg, or a tenant who cannot pay for the window:
            # roll back in reverse — everything cut so far goes straight
            # back, so neither a half-committed nor an unfunded attempt
            # ever holds capacity.
            for shard_id in reversed(legs):
                pools[shard_id].release(legs[shard_id])
            return None
        entry = CoAllocation(
            job=job,
            legs=legs,
            committed_node_seconds=window.processor_time,
            scheduled_at=now,
            completes_at=window.start + window.runtime * self._completion_factor,
        )
        self._active[job.job_id] = entry
        return entry

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def release_due(
        self, pools: Mapping[int, SlotPool], now: float
    ) -> list[CoAllocation]:
        """Retire every entry complete by ``now``, releasing all legs.

        Deterministic order (completion time, then job id), like the
        broker lifecycle's retire sweep.  Returns the retired entries.

        Every shard has raised its floor to its clock, ``now``, so legs
        that ended in the past are checked but not stored.
        """
        due = [
            entry
            for entry in self._active.values()
            if entry.completes_at <= now + TIME_EPSILON
        ]
        due.sort(key=lambda entry: (entry.completes_at, entry.job.job_id))
        for entry in due:
            for shard_id in sorted(entry.legs):
                pools[shard_id].release(entry.legs[shard_id])
            del self._active[entry.job.job_id]
            # Clean completion settles the escrow into revenue.
            self._tenancy.on_retired(entry.job.job_id)
        return due

    def fail_shard(
        self, shard_id: int, live_pools: Mapping[int, SlotPool]
    ) -> list[tuple[CoAllocation, float, float]]:
        """Tear down every entry with a leg on a dead shard.

        Surviving legs are released into their live shards' pools; the
        dead shard's legs are forfeited (the pool underneath is gone).
        Returns ``(entry, released, forfeited)`` node-second triples in
        job-id order for the caller to trace.
        """
        victims = sorted(
            (
                entry
                for entry in self._active.values()
                if shard_id in entry.legs
            ),
            key=lambda entry: entry.job.job_id,
        )
        results: list[tuple[CoAllocation, float, float]] = []
        for entry in victims:
            released = 0.0
            forfeited = 0.0
            forfeited_cost = 0.0
            for leg_shard in sorted(entry.legs):
                sub = entry.legs[leg_shard]
                if leg_shard != shard_id and leg_shard in live_pools:
                    live_pools[leg_shard].release(sub)
                    released += sub.processor_time
                else:
                    forfeited += sub.processor_time
                    forfeited_cost += sub.total_cost
            del self._active[entry.job.job_id]
            # The dead legs forfeit (partial refund on their share of
            # the escrow); the surviving legs never ran, so the rest of
            # the escrow flows back in full.
            self._tenancy.on_forfeit(entry.job.job_id, forfeited_cost, self._emitter)
            self._tenancy.on_release(entry.job.job_id, self._emitter)
            results.append((entry, released, forfeited))
        return results
