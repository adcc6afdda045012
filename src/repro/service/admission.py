"""Admission control: reject at the door what can never be scheduled.

The broker's queue is a shared, bounded resource; admitting a job whose
budget ``S = F·t_s·n`` cannot be met by *any* window over the current
pool only burns cycles deferring it.  The feasibility test here is a
lower bound — per matching node, the cheapest cost that node could
charge for the job's task — so it never rejects a schedulable job, and
rejects with a precise reason everything structurally hopeless:
duplicate ids, more nodes than the pool offers, budgets below the
``n`` cheapest usable nodes.

The lower bound is evaluated on the pool's columnar snapshot
(:meth:`~repro.model.SlotPool.as_arrays`) with numpy column arithmetic
and memoized per (snapshot, request shape): a burst of submissions
between cycles — when the pool's generation is unchanged — pays the
per-node analysis once, not once per job.  The clock steps between
arrivals only raise the pool's floor, which the snapshot applies on read
(:meth:`~repro.model.SlotPool.as_arrays`): a floor that changes what the
pool shows is a new snapshot, with a memo of its own.  The arithmetic
performs the same IEEE operations as a per-slot object loop (the oracle
the property tests hold it to), so the verdicts are *identical*, not
merely close.

The bound is a :func:`~repro.model.window.left_sum` of the ``n``
cheapest costs, ascending, and both money verdicts — the budget and,
with tenancy, the tenant's credit — compare it at live prices against
:func:`~repro.model.window.budget_limit`, the rule every search and
:meth:`~repro.model.Window.validate` apply, so the door and the search
mean the same thing by "within budget".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Optional

import numpy as np

from repro.model.job import Job, ResourceRequest
from repro.model.slot import TIME_EPSILON
from repro.model.slotarrays import SlotArrays
from repro.model.slotpool import SlotPool
from repro.model.window import budget_limit, left_sum
from repro.service.events import EventEmitter, EventType

#: Bound on the per-snapshot admission memo (distinct request shapes
#: seen against one pool generation; FIFO-evicted beyond this).
ADMISSION_CACHE_LIMIT = 64


class RejectionReason(enum.Enum):
    """Why a submission was turned away."""

    QUEUE_FULL = "queue_full"
    DUPLICATE_ID = "duplicate_id"
    TOO_FEW_NODES = "too_few_nodes"
    BUDGET_INFEASIBLE = "budget_infeasible"
    INSUFFICIENT_CREDIT = "insufficient_credit"


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of admission control for one submission."""

    admitted: bool
    reason: Optional[RejectionReason] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.admitted

    @classmethod
    def accept(cls) -> "AdmissionDecision":
        return cls(admitted=True)

    @classmethod
    def reject(cls, reason: RejectionReason, detail: str = "") -> "AdmissionDecision":
        return cls(admitted=False, reason=reason, detail=detail)


def _admission_key(request: ResourceRequest) -> tuple:
    """The request fields the usable-node cost analysis depends on.

    Deliberately excludes ``node_count`` and budget: the memoized value
    is the *sorted usable-node cost list*, from which any ``n``-cheapest
    prefix sum is derived per call.
    """
    return (
        request.reservation_time,
        request.reference_performance,
        request.min_performance,
        request.min_clock_speed,
        request.min_ram,
        request.min_disk,
        request.required_os,
        request.max_price_per_unit,
    )


def _longest_slots(arrays: SlotArrays) -> np.ndarray:
    """Per node of the snapshot's table, its longest slot.

    Shared by every request shape asked of one snapshot: a node can host
    a task exactly when its longest slot is at least the task's need.
    Cached on the snapshot.
    """
    longest = getattr(arrays, "_longest_slots", None)
    if longest is None:
        longest = np.full(arrays.node_count, -np.inf)
        np.maximum.at(longest, arrays.node_row, arrays.end - arrays.start)
        arrays._longest_slots = longest
    return longest


def _usable_node_costs(arrays: SlotArrays, request: ResourceRequest) -> np.ndarray:
    """Sorted task costs of the nodes that could host one leg (memoized).

    A node qualifies when it passes the hardware/price filter and owns
    at least one slot long enough for its task duration, i.e. at least
    the duration less ``TIME_EPSILON``.  Every float is produced by the
    same IEEE operation as the object loop: elementwise ``*``/``/``/``-``
    match their scalar counterparts, and a node's longest slot reaches a
    task's need exactly when one of its slots passes the loop's
    ``slot.length < duration - TIME_EPSILON`` skip.
    """
    cache = getattr(arrays, "_admission_cache", None)
    if cache is None:
        cache = {}
        arrays._admission_cache = cache
    key = _admission_key(request)
    costs = cache.get(key)
    if costs is None:
        duration = (
            request.reservation_time * request.reference_performance
        ) / arrays.performance
        hosts = arrays.match_mask(request)
        hosts &= _longest_slots(arrays) >= duration - TIME_EPSILON
        costs = np.sort((arrays.price * duration)[hosts])
        if len(cache) >= ADMISSION_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = costs
    return costs


def cheapest_feasible_cost(request: ResourceRequest, pool: SlotPool) -> Optional[float]:
    """Lower bound on the cost of any window for ``request`` over ``pool``.

    For every node that matches the hardware/price filter and has at least
    one slot long enough to host the task, the node's task cost is fixed
    (``price · duration``); the cheapest possible window therefore costs
    at least the sum over the ``n`` cheapest such nodes.  Returns ``None``
    when fewer than ``n`` usable nodes exist (no window can ever form,
    regardless of budget).

    Served from the pool's columnar snapshot with a per-(generation,
    request-shape) memo — the snapshot object is reused until the pool
    mutates or its floor moves what it shows, so bursts of submissions
    between cycles amortize the per-node analysis to one numpy pass.
    """
    costs = _usable_node_costs(pool.as_arrays(), request)
    if len(costs) < request.node_count:
        return None
    # Ascending: float-identical to the object loop's ``left_sum`` of
    # its sorted costs (equal values commute bitwise).
    return left_sum(costs[: request.node_count].tolist())


class AdmissionController:
    """Validates submissions against the queue and the current pool.

    ``emitter`` (optional) traces every verdict as ``ADMITTED`` or
    ``REJECTED{reason}``.
    """

    def __init__(self, emitter: Optional[EventEmitter] = None):
        self._emitter = emitter if emitter is not None else EventEmitter()

    def evaluate(
        self,
        job: Job,
        pool: SlotPool,
        queue_depth: int,
        queue_capacity: int,
        known_ids: AbstractSet[str],
        price_multiplier: float = 1.0,
        credit_balance: Optional[float] = None,
    ) -> AdmissionDecision:
        """Admit or reject one submission (called under the broker lock).

        ``price_multiplier`` scales the cheapest-feasible lower bound to
        live prices; ``credit_balance``, when given, additionally gates
        on the tenant's ability to pay that bound (tenancy layer).
        """
        decision, live_bound = self._decide(
            job,
            pool,
            queue_depth,
            queue_capacity,
            known_ids,
            price_multiplier,
            credit_balance,
        )
        if decision.admitted:
            self._emitter.emit(EventType.ADMITTED, job_id=job.job_id)
        else:
            assert decision.reason is not None
            if decision.reason is RejectionReason.INSUFFICIENT_CREDIT:
                self._emitter.emit(
                    EventType.INSUFFICIENT_CREDIT,
                    job_id=job.job_id,
                    tenant=job.owner,
                    required=live_bound,
                    balance=credit_balance if credit_balance is not None else 0.0,
                )
            self._emitter.emit(
                EventType.REJECTED,
                job_id=job.job_id,
                reason=decision.reason.value,
            )
        return decision

    def _decide(
        self,
        job: Job,
        pool: SlotPool,
        queue_depth: int,
        queue_capacity: int,
        known_ids: AbstractSet[str],
        price_multiplier: float,
        credit_balance: Optional[float],
    ) -> tuple[AdmissionDecision, Optional[float]]:
        """The verdict, and the lower bound at live prices when it was
        computed (``None`` before that)."""
        if queue_depth >= queue_capacity:
            return AdmissionDecision.reject(
                RejectionReason.QUEUE_FULL,
                f"queue holds {queue_depth}/{queue_capacity} jobs",
            ), None
        if job.job_id in known_ids:
            return AdmissionDecision.reject(
                RejectionReason.DUPLICATE_ID,
                f"job id {job.job_id!r} is already queued or running",
            ), None
        request = job.request
        lower_bound = cheapest_feasible_cost(request, pool)
        if lower_bound is None:
            return AdmissionDecision.reject(
                RejectionReason.TOO_FEW_NODES,
                f"request needs {request.node_count} matching nodes; "
                f"the pool cannot host that many",
            ), None
        budget = request.effective_budget
        live_bound = lower_bound * price_multiplier
        if live_bound > budget_limit(budget):
            return AdmissionDecision.reject(
                RejectionReason.BUDGET_INFEASIBLE,
                f"cheapest possible window costs {live_bound:.1f} at live "
                f"prices, budget is {budget:.1f}",
            ), live_bound
        if credit_balance is not None and live_bound > budget_limit(credit_balance):
            return AdmissionDecision.reject(
                RejectionReason.INSUFFICIENT_CREDIT,
                f"cheapest possible window costs {live_bound:.1f} at live "
                f"prices, tenant {job.owner!r} holds {credit_balance:.1f} "
                "credits",
            ), live_bound
        return AdmissionDecision.accept(), live_bound
