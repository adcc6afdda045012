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
arrivals only raise the pool's floor, which admission applies on read
without trimming (:meth:`~repro.model.SlotPool.arrays_before_floor`):
the snapshot and the per-shape memo survive it, and a new floor costs
one per-node pass that every request shape shares.  The arithmetic
performs the same IEEE operations as a per-slot object loop (the oracle
the property tests hold it to), so the verdicts are *identical*, not
merely close.

:class:`AdmissionOutlook` adds the warm-start layer: exponentially
decayed per-criterion fit-probability and queue-wait estimates from
recent cycle outcomes.  With ``min_fit`` enabled, admission uses that
outlook instead of a cold "the queue will sort it out" heuristic —
jobs arriving while the broker demonstrably fails to place its batches
are turned away at the door (``PREDICTED_MISS``) rather than deferred
to death.  The gate defaults to off, keeping decision streams
byte-identical to brokers without the layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Optional

import numpy as np

from repro.model.job import Job, ResourceRequest
from repro.model.slot import TIME_EPSILON
from repro.model.slotarrays import SlotArrays
from repro.model.slotpool import PendingFloor, SlotPool
from repro.model.window import COST_EPSILON
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
    PREDICTED_MISS = "predicted_miss"
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


class _ShapeAnalysis:
    """What one request shape's bound needs from one snapshot, whatever
    the floor: per node, the slot length a task needs (its duration
    less ``TIME_EPSILON``), the task cost and whether the node passes
    the hardware/price filter; plus the sorted costs at the floor they
    were last asked for."""

    __slots__ = ("need", "cost", "match", "floor", "costs")

    def __init__(self, arrays: SlotArrays, request: ResourceRequest):
        duration = (
            request.reservation_time * request.reference_performance
        ) / arrays.performance
        self.need = duration - TIME_EPSILON
        self.cost = arrays.price * duration
        self.match = arrays.match_mask(request)
        #: The pending floor ``costs`` were computed at (``None``: none).
        self.floor: object = _UNSET
        self.costs: np.ndarray


#: ``_ShapeAnalysis.floor`` before any costs were computed.
_UNSET = object()


def _longest_slots(arrays: SlotArrays, pending: Optional[PendingFloor]) -> np.ndarray:
    """Per node, its longest slot once the pending floor is applied
    (``-inf`` for a node left without slots).

    Rows from the floor's cutoff on keep their lengths; the rows before
    it are the only ones the floor changes.  Shared by every request
    shape asked at one floor: a node can host a task exactly when its
    longest slot is at least the task's need.  Cached on the snapshot.
    """
    cached = getattr(arrays, "_admission_floor", None)
    if cached is not None and cached[0] is pending:
        return cached[1]
    longest = np.full(arrays.node_count, -np.inf)
    cutoff = 0
    if pending is not None:
        cutoff, kept = pending.cutoff, pending.kept
        np.maximum.at(
            longest,
            arrays.node_row[:cutoff][kept],
            (arrays.end[:cutoff] - pending.start)[kept],
        )
    np.maximum.at(
        longest, arrays.node_row[cutoff:], arrays.end[cutoff:] - arrays.start[cutoff:]
    )
    arrays._admission_floor = (pending, longest)
    return longest


def _usable_node_costs(
    arrays: SlotArrays, request: ResourceRequest, pending: Optional[PendingFloor]
) -> np.ndarray:
    """Sorted task costs of the nodes that could host one leg (memoized).

    A node qualifies when it passes the hardware/price filter and owns
    at least one slot long enough for its task duration — among the
    slots the pending floor's trim would leave, when one is pending.
    The per-shape analysis outlives the floor; a new floor costs one
    per-node pass shared by every shape (:func:`_longest_slots`).
    Every float is produced by the same IEEE operation as the object
    loop: elementwise ``*``/``/``/``-`` match their scalar
    counterparts, and a node's longest slot reaches a task's need
    exactly when one of its slots passes the loop's ``slot.length <
    duration - TIME_EPSILON`` skip.
    """
    cache = getattr(arrays, "_admission_cache", None)
    if cache is None:
        cache = {}
        arrays._admission_cache = cache
    key = _admission_key(request)
    shape = cache.get(key)
    if shape is None:
        shape = _ShapeAnalysis(arrays, request)
        if len(cache) >= ADMISSION_CACHE_LIMIT:
            cache.pop(next(iter(cache)))
        cache[key] = shape
    if shape.floor is not pending:
        hosts = shape.match & (_longest_slots(arrays, pending) >= shape.need)
        shape.costs = np.sort(shape.cost[hosts])
        shape.floor = pending
    return shape.costs


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
    mutates, so bursts of submissions between cycles amortize the
    per-node analysis to one numpy pass.  A pending floor is applied on
    read and left pending: an arrival's clock step costs no trim and no
    new snapshot here, and the bound equals the one over the trimmed
    pool.
    """
    arrays, pending = pool.arrays_before_floor()
    costs = _usable_node_costs(arrays, request, pending)
    if len(costs) < request.node_count:
        return None
    # Ascending sequential sum — float-identical to the object loop's
    # ``sum(sorted(...)[:n])`` (equal values commute bitwise).
    total = 0.0
    for cost in costs[: request.node_count].tolist():
        total += cost
    return total


class AdmissionOutlook:
    """Exponentially decayed warm-start statistics from recent cycles.

    The broker reports every cycle's outcome per criterion: how many
    jobs the batch held, how many were placed, and how long the batch
    had waited in the queue.  The outlook folds those into decayed
    means — ``fit``, the probability a batched job gets a window, and
    ``wait``, the queue latency a new arrival should expect — so the
    admission controller can consult the broker's *demonstrated* recent
    ability instead of a cold heuristic.  Decay ``d`` gives cycle ``k``
    ago weight ``d^k`` (an exponential window: ~``1/(1-d)`` effective
    cycles), so a backlogged phase fades within tens of cycles once
    conditions recover.

    Statistics are keyed per criterion: a process serving several
    brokers with different phase-two policies (a federation) keeps
    their evidence separate, since fit probability under ``MinCost``
    says nothing about ``MinFinish``.
    """

    def __init__(self, decay: float = 0.85):
        if not 0.0 < decay < 1.0:
            raise ValueError(f"decay must be in (0, 1), got {decay}")
        self.decay = decay
        #: criterion key -> [decayed weight, decayed fit sum, decayed
        #: wait sum, cycles observed]
        self._by_criterion: dict[str, list[float]] = {}

    def observe_cycle(
        self, criterion: str, batched: int, scheduled: int, mean_wait: float
    ) -> None:
        """Fold one cycle's outcome into the decayed estimates.

        Empty batches carry no placement evidence and are skipped — a
        quiet broker keeps its last informed outlook rather than
        decaying toward optimism.
        """
        if batched <= 0:
            return
        state = self._by_criterion.get(criterion)
        if state is None:
            state = [0.0, 0.0, 0.0, 0.0]
            self._by_criterion[criterion] = state
        fit = scheduled / batched
        decay = self.decay
        state[0] = state[0] * decay + 1.0
        state[1] = state[1] * decay + fit
        state[2] = state[2] * decay + mean_wait
        state[3] += 1.0

    def cycles_observed(self, criterion: str) -> int:
        """Number of non-empty cycles folded in for ``criterion``."""
        state = self._by_criterion.get(criterion)
        return int(state[3]) if state is not None else 0

    def fit_probability(self, criterion: str) -> Optional[float]:
        """Decayed probability a batched job is placed; ``None`` if cold."""
        state = self._by_criterion.get(criterion)
        if state is None or state[0] <= 0.0:
            return None
        return state[1] / state[0]

    def predicted_wait(self, criterion: str) -> Optional[float]:
        """Decayed mean queue wait (virtual time); ``None`` if cold."""
        state = self._by_criterion.get(criterion)
        if state is None or state[0] <= 0.0:
            return None
        return state[2] / state[0]

    def snapshot(self) -> dict[str, dict[str, float]]:
        """JSON-friendly per-criterion view of the current estimates."""
        view: dict[str, dict[str, float]] = {}
        for criterion in self._by_criterion:
            view[criterion] = {
                "fit_probability": round(self.fit_probability(criterion) or 0.0, 6),
                "predicted_wait": round(self.predicted_wait(criterion) or 0.0, 6),
                "cycles_observed": self.cycles_observed(criterion),
            }
        return view


class AdmissionController:
    """Validates submissions against the queue and the current pool.

    Parameters
    ----------
    strict_budget:
        When ``True`` (default), reject jobs whose budget is below the
        cheapest-possible window cost over the current pool.  Disabling
        keeps only the structural checks (duplicates, queue bound, node
        count), which admits more but defers more.
    emitter:
        Optional event emitter; every verdict is traced as ``ADMITTED``
        or ``REJECTED{reason}``.
    outlook:
        Optional :class:`AdmissionOutlook` consulted for warm-start
        verdicts; requires ``criterion`` to select the evidence stream.
    min_fit:
        Predictive gate threshold: once the outlook has evidence
        (``min_fit_cycles`` non-empty cycles), jobs are rejected with
        ``PREDICTED_MISS`` while the decayed fit probability sits below
        this value.  ``0.0`` (default) disables the gate entirely, so
        decision streams stay byte-identical to pre-outlook brokers.
    min_fit_cycles:
        Evidence floor before the predictive gate may fire — a single
        unlucky first cycle must not slam the door.
    """

    def __init__(
        self,
        strict_budget: bool = True,
        emitter: Optional[EventEmitter] = None,
        outlook: Optional[AdmissionOutlook] = None,
        criterion: str = "",
        min_fit: float = 0.0,
        min_fit_cycles: int = 3,
    ):
        self.strict_budget = strict_budget
        self._emitter = emitter if emitter is not None else EventEmitter()
        self.outlook = outlook
        self.criterion = criterion
        self.min_fit = min_fit
        self.min_fit_cycles = min_fit_cycles

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
        decision = self._decide(
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
                lower_bound = cheapest_feasible_cost(job.request, pool) or 0.0
                self._emitter.emit(
                    EventType.INSUFFICIENT_CREDIT,
                    job_id=job.job_id,
                    tenant=job.owner,
                    required=lower_bound * price_multiplier,
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
        price_multiplier: float = 1.0,
        credit_balance: Optional[float] = None,
    ) -> AdmissionDecision:
        if queue_depth >= queue_capacity:
            return AdmissionDecision.reject(
                RejectionReason.QUEUE_FULL,
                f"queue holds {queue_depth}/{queue_capacity} jobs",
            )
        if job.job_id in known_ids:
            return AdmissionDecision.reject(
                RejectionReason.DUPLICATE_ID,
                f"job id {job.job_id!r} is already queued or running",
            )
        request = job.request
        lower_bound = cheapest_feasible_cost(request, pool)
        if lower_bound is None:
            return AdmissionDecision.reject(
                RejectionReason.TOO_FEW_NODES,
                f"request needs {request.node_count} matching nodes; "
                f"the pool cannot host that many",
            )
        budget = request.effective_budget
        live_bound = lower_bound * price_multiplier
        if self.strict_budget and live_bound > budget * (1.0 + COST_EPSILON) + COST_EPSILON:
            return AdmissionDecision.reject(
                RejectionReason.BUDGET_INFEASIBLE,
                f"cheapest possible window costs {live_bound:.1f} at live "
                f"prices, budget is {budget:.1f}",
            )
        if (
            credit_balance is not None
            and live_bound > credit_balance * (1.0 + COST_EPSILON) + COST_EPSILON
        ):
            return AdmissionDecision.reject(
                RejectionReason.INSUFFICIENT_CREDIT,
                f"cheapest possible window costs {live_bound:.1f} at live "
                f"prices, tenant {job.owner!r} holds {credit_balance:.1f} "
                "credits",
            )
        if self.min_fit > 0.0 and self.outlook is not None:
            if self.outlook.cycles_observed(self.criterion) >= self.min_fit_cycles:
                fit = self.outlook.fit_probability(self.criterion)
                if fit is not None and fit < self.min_fit:
                    return AdmissionDecision.reject(
                        RejectionReason.PREDICTED_MISS,
                        f"recent cycles place {fit:.0%} of batched jobs "
                        f"under {self.criterion or 'the current criterion'}; "
                        f"gate requires {self.min_fit:.0%}",
                    )
        return AdmissionDecision.accept()
