"""Facade the serving stack talks to: registry + ledger + DRF + pricing.

One :class:`TenancyManager` serves a whole deployment — a single broker
owns its own, a federation builds one and shares it across every shard
broker and the co-allocator, so credit balances and the pricing EWMA
are global while each caller keeps emitting on its own (shard-tagged)
emitter.  Every method takes the caller's emitter explicitly for that
reason.

The manager never touches broker locks; callers invoke it while holding
their own lock, and the ledger's internal leaf lock makes the shared
state safe across shards.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from repro.model.window import left_sum
from repro.service.events import EventEmitter, EventType
from repro.tenancy.config import TenancyConfig
from repro.tenancy.drf import DRFSorter
from repro.tenancy.ledger import CreditLedger
from repro.tenancy.pricing import PricingEngine

if TYPE_CHECKING:
    from repro.model.job import Job, ResourceRequest
    from repro.model.slotpool import SlotPool
    from repro.model.window import Window
    from repro.service.lifecycle import JobLifecycle
    from repro.service.queueing import BoundedJobQueue, QueuedJob


class TenancyManager:
    """Ties the ledger, sorter and pricing engine to the serving stack."""

    def __init__(self, config: TenancyConfig) -> None:
        self.config = config
        self.ledger = CreditLedger(config)
        self.pricing = PricingEngine(config)

    # -- cycle ordering ----------------------------------------------

    def drain_batch(self, queue: "BoundedJobQueue", limit: int) -> list["QueuedJob"]:
        """Pick which queued jobs enter this cycle's batch.

        ``ordering="fifo"`` preserves the legacy arrival-order drain;
        ``"drf"`` runs the Mesos sorter loop over per-tenant FIFO lanes,
        serving the tenant with the smallest dominant share of
        cumulative committed node-seconds first.  Selected entries are
        removed from the queue; everything else keeps its position.
        """
        if self.config.ordering == "fifo":
            return queue.pop_batch(limit)
        pending: dict[str, list[QueuedJob]] = {}
        for item in queue.items():
            pending.setdefault(item.job.owner, []).append(item)
        if not pending:
            return []
        sorter = DRFSorter(
            allocated=self.ledger.committed_shares(),
            weights=self.ledger.weights(),
            default_weight=self.config.default_weight,
        )
        for owner in pending:
            # Touch the account so new owners sort at zero share with
            # their registered (or default) weight.
            self.ledger.account(owner)
            sorter.weights.setdefault(owner, self.ledger.account(owner).weight)
        picked = sorter.select(
            pending,
            demand=lambda item: (
                item.job.request.node_count * item.job.request.reservation_time
            ),
            limit=limit,
        )
        return [queue.remove(item.job.job_id) for item in picked]

    # -- pricing ------------------------------------------------------

    @property
    def price_multiplier(self) -> float:
        return self.pricing.multiplier

    def live_request(
        self, request: "ResourceRequest", multiplier: float
    ) -> "ResourceRequest":
        """``request`` as a search must see it under live prices.

        Live prices are the static prices scaled uniformly by the
        multiplier ``m``, so "window cost m*C fits budget b" is exactly
        "C fits b/m": scaling the *budget* (and the per-node price cap)
        lets phase one and phase two — the broker cycle's and the
        co-allocator's union search alike — see live prices without
        touching the slot snapshot.
        """
        if multiplier == 1.0:
            return request
        budget = request.effective_budget
        cap = request.max_price_per_unit
        return replace(
            request,
            budget=None if not math.isfinite(budget) else budget / multiplier,
            max_price_per_unit=None if cap is None else cap / multiplier,
        )

    def observe_cycle(
        self, held_node_seconds: float, free_node_seconds: float
    ) -> float:
        return self.pricing.observe_cycle(held_node_seconds, free_node_seconds)

    def cycle_end_fields(
        self, lifecycle: "JobLifecycle", pool: "SlotPool"
    ) -> dict[str, object]:
        """Close a broker cycle: fold its utilization into the pricing
        EWMA — the node-seconds held by live windows against what the
        pool still offers — and report the multiplier that prices the
        *next* cycle and every admission until then."""
        held = left_sum(entry.window.processor_time for entry in lifecycle.entries())
        arrays = pool.as_arrays()
        free = float((arrays.end - arrays.start).sum())
        return {"price_multiplier": self.observe_cycle(held, free)}

    # -- admission ----------------------------------------------------

    def admission_balance(self, tenant: str) -> Optional[float]:
        """The tenant's balance, or ``None`` when credits don't gate
        admission (enforcement off)."""
        if not self.config.enforce_credits:
            return None
        return self.ledger.balance(tenant)

    # -- escrow lifecycle ---------------------------------------------

    def charge_commit(
        self,
        job: "Job",
        window: "Window",
        emitter: EventEmitter,
        *,
        multiplier: Optional[float] = None,
    ) -> bool:
        """Debit the job's tenant the live window cost at commit time.

        Emits ``CREDIT_DEBITED`` on success, ``INSUFFICIENT_CREDIT`` on
        an unaffordable commit (the caller then defers the job instead
        of committing).  Returns whether the debit succeeded.
        """
        m = self.price_multiplier if multiplier is None else multiplier
        amount = window.total_cost * m
        tenant = job.owner
        ok = self.ledger.debit(
            tenant,
            job.job_id,
            amount,
            multiplier=m,
            node_seconds=window.processor_time,
        )
        if ok:
            emitter.emit(
                EventType.CREDIT_DEBITED,
                job_id=job.job_id,
                tenant=tenant,
                amount=amount,
                balance=self.ledger.balance(tenant),
            )
        else:
            emitter.emit(
                EventType.INSUFFICIENT_CREDIT,
                job_id=job.job_id,
                tenant=tenant,
                required=amount,
                balance=self.ledger.balance(tenant),
            )
        return ok

    def on_retired(self, job_id: str) -> None:
        """A window completed: settle the remaining escrow as revenue."""
        self.ledger.settle(job_id)

    def on_forfeit(
        self, job_id: str, leg_cost: float, emitter: EventEmitter
    ) -> float:
        """Legs worth ``leg_cost`` (static prices) were revoked: refund
        the configured fraction of their escrow.  Emits
        ``CREDIT_REFUNDED`` when anything flows back."""
        tenant, refund = self.ledger.refund_forfeit(job_id, leg_cost)
        if refund > 0.0:
            emitter.emit(
                EventType.CREDIT_REFUNDED,
                job_id=job_id,
                tenant=tenant,
                amount=refund,
                balance=self.ledger.balance(tenant),
                kind="forfeit",
            )
        return refund

    def on_release(self, job_id: str, emitter: EventEmitter) -> float:
        """The job's remaining window was released unrun (replan,
        abandon, co-allocation teardown): refund the whole remaining
        escrow.  Emits ``CREDIT_REFUNDED`` when anything flows back."""
        tenant, refund = self.ledger.refund_release(job_id)
        if refund > 0.0:
            emitter.emit(
                EventType.CREDIT_REFUNDED,
                job_id=job_id,
                tenant=tenant,
                amount=refund,
                balance=self.ledger.balance(tenant),
                kind="release",
            )
        return refund

    # -- introspection ------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "ledger": self.ledger.snapshot(),
            "pricing": self.pricing.snapshot(),
            "ordering": self.config.ordering,
            "enforce_credits": self.config.enforce_credits,
        }
