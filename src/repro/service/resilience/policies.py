"""Recovery policies: what to do with a compromised committed window.

A revocation leaves the broker with a window split into *revoked* legs
(their node was claimed by a local job over the reservation's span) and
*surviving* legs.  The policy decides among three actions, in decreasing
order of preserved work:

1. :class:`RepairAction` — substitute only the revoked legs with fresh
   slots able to host the same ``[start, start + required_time)`` span,
   keeping the synchronous start, the surviving reservations and the
   job's place in the schedule.  Found via
   :func:`~repro.core.repair.find_fixed_start_replacements` within the
   budget left over by the surviving legs.
2. :class:`ReplanAction` — cancel the window, release the surviving
   legs back to the pool and re-enqueue the job after a deadline-aware
   exponential backoff, up to ``max_retries`` times.
3. :class:`AbandonAction` — give the job up (the terminal ABANDONED
   trace state), with the deciding ``cause`` recorded.

Policies are pure deciders: they inspect a :class:`RevocationContext`
and return an action; the :class:`~repro.service.resilience.manager.
ResilienceManager` applies it (pool mutation, lifecycle bookkeeping,
events, stats).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.repair import find_fixed_start_replacements
from repro.model.job import Job
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import SlotPool
from repro.model.window import Window, WindowSlot, left_sum


@dataclass(frozen=True)
class RevocationContext:
    """Everything a policy may look at when deciding a recovery.

    ``revoked``/``surviving`` partition ``window.slots``; ``retries`` is
    the number of replans this job has already been granted; ``pool`` is
    the live free-slot pool (policies may search it, only the manager
    mutates it).
    """

    job: Job
    window: Window
    revoked: tuple[WindowSlot, ...]
    surviving: tuple[WindowSlot, ...]
    now: float
    retries: int
    pool: SlotPool


@dataclass(frozen=True)
class RepairAction:
    """Swap the revoked legs for ``replacements`` at the same start."""

    replacements: tuple[WindowSlot, ...]


@dataclass(frozen=True)
class ReplanAction:
    """Cancel the window; re-enqueue the job once ``ready_at`` passes."""

    ready_at: float


@dataclass(frozen=True)
class AbandonAction:
    """Give the job up; ``cause`` names the deciding constraint."""

    cause: str


RecoveryAction = Union[RepairAction, ReplanAction, AbandonAction]


class RecoveryPolicy:
    """Decider interface: context in, one action out.

    Stateless by contract — per-job state (retry counts, revocation
    times) lives in the manager and is passed in through the context, so
    one policy instance serves every job and policies stay trivially
    picklable/configurable.
    """

    name = "abstract"

    def decide(self, ctx: RevocationContext) -> RecoveryAction:  # pragma: no cover
        raise NotImplementedError


class AbandonPolicy(RecoveryPolicy):
    """Never recover: any revocation is terminal (the control baseline)."""

    name = "abandon"

    def decide(self, ctx: RevocationContext) -> RecoveryAction:
        return AbandonAction(cause="policy_abandon")


class ReplanPolicy(RecoveryPolicy):
    """Cancel and re-enqueue with bounded, deadline-aware backoff."""

    name = "replan"

    def __init__(
        self,
        max_retries: int = 3,
        backoff_base: float = 5.0,
        backoff_factor: float = 2.0,
    ):
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor

    def decide(self, ctx: RevocationContext) -> RecoveryAction:
        return self._replan_or_abandon(ctx)

    def _replan_or_abandon(self, ctx: RevocationContext) -> RecoveryAction:
        if ctx.retries >= self.max_retries:
            return AbandonAction(cause="max_retries")
        ready_at = ctx.now + self.backoff_base * self.backoff_factor**ctx.retries
        deadline = ctx.job.request.deadline
        if deadline is not None and ready_at >= deadline - TIME_EPSILON:
            return AbandonAction(cause="deadline")
        return ReplanAction(ready_at=ready_at)


class RepairPolicy(ReplanPolicy):
    """Repair in place when possible, otherwise degrade to replan.

    Repair is only attempted while the window has not started yet
    (``window.start >= now``): once the pool has been trimmed past the
    start, no slot can host the original span, and a partially executed
    co-allocation cannot take a cold substitute leg mid-run anyway.
    """

    name = "repair"

    def decide(self, ctx: RevocationContext) -> RecoveryAction:
        if ctx.window.start >= ctx.now - TIME_EPSILON:
            budget = ctx.job.request.effective_budget - left_sum(
                leg.cost for leg in ctx.surviving
            )
            replacements = find_fixed_start_replacements(
                ctx.pool,
                ctx.job.request,
                ctx.window.start,
                count=len(ctx.revoked),
                exclude_nodes=set(ctx.window.nodes()),
                budget=budget,
            )
            if replacements is not None:
                return RepairAction(replacements=tuple(replacements))
        return self._replan_or_abandon(ctx)


#: Policy registry keyed by the names ``ResilienceConfig.policy`` accepts.
POLICIES: dict[str, type[RecoveryPolicy]] = {
    "repair": RepairPolicy,
    "replan": ReplanPolicy,
    "abandon": AbandonPolicy,
}
