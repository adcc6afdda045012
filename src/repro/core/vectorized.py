"""Vectorized AEP scan: numpy precomputation + one primitive event loop.

The generic loop in :func:`repro.core.aep.aep_scan` is linear in the
number of slots, but every one of its constant-factor steps — hardware
matching, leg construction, ``fits_from``, expiry bookkeeping, the
per-step ``extract`` — touches Python objects.  This module removes the
objects from the hot path while reproducing that loop's decisions over
the stock extractors *byte for byte*:

1. **Columnar scan plan** (numpy, O(m), cached): per-request node
   matching, task runtimes, leg costs, last starts and insertability
   are computed for the whole slot list with column arithmetic on a
   :class:`~repro.model.slotarrays.SlotArrays` snapshot, then frozen
   into primitive lists plus the total orders the per-step structures
   consume (cost order ``(cost, required_time, arrival)``, time order
   ``(required_time, cost, arrival)``).  The plan depends only on the
   request's matching/runtime fields — not on budget or node count — and
   is cached on the snapshot, so re-scanning an unchanged pool for the
   same request (admission and phase one between mutations, repeated
   bench scans) pays only the event loop.  Every float is produced by
   the same IEEE operation the object path performs (elementwise ``/``
   and ``*`` match scalar ``/`` and ``*`` exactly; the one
   non-reproducible op, ``performance ** 2`` inside ``CpuNode.power``,
   is precomputed per node in Python).  "A leg fits from t" is one
   float test everywhere: its last start ``min(end, deadline) - r``
   (:func:`~repro.model.slot.last_start`) is at least ``t - eps``
   (:func:`~repro.model.slot.fits_from`).  The plan computes the last
   starts once; a candidate is insertable when it fits from its own
   start, and that same float is its expiry time, so no candidate is
   ever expired on arrival.
2. **One sweep skeleton** (pure-primitive Python): :func:`_sweep` is the
   paper's scan, written once.  It walks the matching slots, expires
   candidates through a pointer over the pre-sorted expiry order (valid
   because the slot list is start-ordered — anything else falls back to
   the generic loop), keeps the alive / inserted / expired / peak /
   steps counters, and owns the ``alive < n`` gate, the improvement
   test ``value < best − ε``, the ``stop_at_first`` break and the
   outcome.  A criterion is a small *rule*: ``expire`` and ``add`` hooks
   that keep the sorted-rank structures its extraction reads (one
   :class:`_TopN` each), and a ``step`` hook, a skip bound followed by
   the primitive replay of its ``extract``.  There are four rules.
   :class:`_Cheapest` serves earliest start and minimum total cost (the
   n cheapest alive, if their cost sum fits the budget).  :class:`_Walk`
   serves MinRuntime and MinFinish, substitution or exact; the four
   differ only in the skip bound and the ``window_start +`` offset of
   the value.  :class:`_Greedy` is the additive swap search, and
   :class:`_Random` the paper's randomized MinProcTime.
3. **Skip bounds**: the walk and greedy rules only run their extraction
   at steps a provable lower bound says could still win.  MinRuntime
   uses a *budget-aware* certificate: a window beating the incumbent
   must consist of candidates with runtime below ``best − ε`` (a
   threshold that is constant between improvements), so the rule keeps
   the n-cheapest-cost sum over exactly that set and skips while it
   exceeds the budget.  Skipped steps provably cannot improve the
   incumbent, so the scan's outcome is identical to evaluating every
   step.  :class:`_Random` has no bound: it replays the extractor's own
   generator draw for draw, and a skipped step would skip a draw.
4. **Materialization**: a CSA sweep's hits leave the kernel as rows
   (:class:`WindowRow`): the window start and, per leg, the snapshot
   row, node id, runtime and cost, gathered from the plan's columns
   once per search.  Phase two ranks rows by the criterion values they
   report, holds them to the VO budget by their cost and tests
   conflicts on their ``(node id, runtime)`` legs, all floats their
   windows would compute.  ``Slot``/``WindowSlot`` objects are built
   only for a row that becomes a window (:meth:`WindowRow.as_window`:
   an alternative phase two chooses, every alternative of
   :meth:`~repro.core.algorithms.csa.CSA.find_alternatives`, and a
   single scan's winner, which goes through a row too), from the
   snapshot's own slots (:meth:`SlotArrays.slot_at`).  The plan itself
   lists only what its sweep reads: the orders every sweep walks, and
   the rest on first read.

Dispatch (:func:`vectorized_scan`) selects from what it can observe:
:func:`_strategy_of` maps exactly the extractor types whose ``extract``
it replays to their rule — unknown extractors, subclasses, random
selection by any key but the runtime, one-shot iterators and non-sorted
slot inputs return :data:`UNSUPPORTED` and the caller runs the generic
loop.

Two sweeps stay outside the skeleton.  :func:`_run_cheapest_consume`
and :func:`_run_first_consume` answer CSA's question — *every*
earliest-start window, each on the pool without its predecessors'
slots — in one sweep instead of one scan per alternative
(:func:`vectorized_alternatives`).  Their state is not one alive set:
consumed flags that the expiry pointer skips, and for the paper's
eviction policy a restart from per-step checkpoints of the waiting
list.  They are also the hot path of all four broker workloads, which
the skeleton's per-slot hook calls would tax.

The cheapest consume sweep also knows, before it starts, which
candidates can ever be in a window: the budget admits a cost rank only
if the ``n - 1`` cheapest costs plus its own fit, so the survivors are a
rank prefix found by binary search, and the other ranks are never
inserted.  When that prefix is a small share of the plan (an
over-subscribed broker's tight budgets), the sweep walks the survivors'
steps and expiries alone; otherwise it steps at every candidate and
skips the pruned ranks inline.  Windows, hits and counters are unchanged
(:func:`_run_cheapest_consume` has the proof).

Most CSA searches of an over-subscribed broker find nothing, and two
things keep them from paying for a full search.  *The pre-check*: every
window of the eviction sweep is an n-set of co-alive candidates within
budget, so the cheapest sweep, run for one window with its budget
widened to cover the two sweeps' summation orders (both keep a
candidate by the same test), hits at the same step or earlier; when it
finds nothing the eviction sweep is not run (:func:`_may_evict_hit` has
the proof in floats).  *Negative certificates*: a zero of the cheapest
sweep, or of the pre-check, stays a zero while a pool only loses free
time, so it is recorded on the :class:`SlotPool` searched, and an
identical search is answered ``[]`` before any snapshot or plan is
read, counted as ``scan_counters["certified"]`` rather than as a scan,
until the pool gains free time (:func:`vectorized_alternatives`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush, heapreplace
from typing import Optional

import numpy as np

from repro.core.extractors import (
    VALUE_EPSILON,
    EarliestFinishExtractor,
    EarliestStartExtractor,
    GreedyAdditiveExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
    RandomWindowExtractor,
    ScanResult,
    _budget_of,
    runtime_key,
)
from repro.model.job import ResourceRequest
from repro.model.slot import TIME_EPSILON
from repro.model.slotarrays import SlotArrays
from repro.model.slotpool import SlotPool
from repro.model.window import Window, WindowSlot, left_sum

#: Relative slack applied to the skip bounds that compare float sums
#: accumulated in a different order than the extraction accumulates
#: them.  The orders differ by a few ulps at most; this margin is many
#: orders of magnitude above that, and it always widens the "must
#: evaluate" region, so a skipped step provably cannot beat the
#: incumbent.
_BOUND_SLACK = 1e-9

#: Survivor share (rank bound / candidates) at or below which CSA's
#: cheapest sweep walks only the survivors (:func:`_run_cheapest_consume`).
#: Timed per sweep in both regimes on the three broker workloads that
#: run it: walking pays below about 0.6 on the over-subscribed
#: ``tenants_faults`` and costs from about 0.3 on ``soak_poisson``,
#: whose capped sweeps stop after a few hits and so never reach most of
#: the steps a walk saves; the two workloads' summed sweep time is
#: lowest at 0.4.
_WALK_SHARE = 0.4

#: Sentinel: the extractor/input combination is not vectorizable; the
#: caller must run the generic loop.
UNSUPPORTED = object()

#: Dispatch telemetry for tests and the CI smoke job: counts of scans
#: served by the vector kernel vs. handed back to the generic loop, of
#: CSA searches answered by a pool's negative certificate without a
#: scan (:func:`vectorized_alternatives`),
#: of scan plans computed vs. reused from a snapshot's cache (the
#: reuse the rolling-horizon broker banks on between mutations), and of
#: request-class grouping in
#: :meth:`~repro.core.algorithms.base.SlotSelectionAlgorithm.find_alternatives_batch`:
#: how many jobs entered a grouped call, how many distinct requests they
#: folded into, and how many rode another class member's search for free.
scan_counters = {
    "vectorized": 0,
    "fallback": 0,
    "certified": 0,
    "plans_built": 0,
    "plans_reused": 0,
    "grouped_jobs": 0,
    "grouped_classes": 0,
    "grouped_shared": 0,
    # Always 0: no search shares a sweep.  The benchmark harness still
    # reports the key.
    "batch_sweeps": 0,
}

#: Per-snapshot plan cache bound.  A broker cycle scans one snapshot
#: for every queued request shape, so the cache is a dict keyed by
#: :func:`_plan_key` rather than a single slot (which thrashed across
#: interleaved shapes); FIFO-evicted beyond this many entries to keep
#: snapshot memory bounded over soak runs.
PLAN_CACHE_LIMIT = 64


def _strategy_of(extractor):
    """The replay rule for ``extractor``, or ``None`` if unknown.

    Matches exact types only: a subclass may override ``extract`` (e.g.
    the maximizing ``_LatestStartExtractor``), so anything derived falls
    back to the generic loop.
    """
    kind = type(extractor)
    if kind is EarliestFinishExtractor:
        return _FINISH_RULES.get(type(extractor._runtime))
    if kind is GreedyAdditiveExtractor:
        if extractor.key_name in GreedyAdditiveExtractor.VECTOR_KEYS:
            return _Greedy(extractor.key_name, extractor._max_rounds)
        return None
    if kind is RandomWindowExtractor and extractor._key is runtime_key:
        return _Random(extractor._rng, extractor._attempts)
    return _RULES.get(kind)


def _resolve_arrays(slots):
    """``(SlotArrays, its slot at a row)`` for the input, or ``None``.

    The input is a pool (its snapshot), a snapshot itself — e.g. the
    co-allocator's merge of shard snapshots
    (:func:`~repro.model.slotpool.merge_snapshots`) — or a slot list.
    The second is :meth:`SlotArrays.slot_at`: a search reads the slots of
    the windows it materializes, one row each, and builds no slot list.
    """
    if isinstance(slots, SlotPool):
        arrays = slots.as_arrays()
    elif isinstance(slots, SlotArrays):
        arrays = slots
    elif isinstance(slots, (list, tuple)):
        arrays = SlotArrays.from_slots(slots)
    else:
        return None
    return arrays, arrays.slot_at


class _ScanPlan:
    """Request-derived scan columns, frozen into primitive containers.

    Everything here depends only on the snapshot and the request's
    matching/runtime fields — budget, node count and ``stop_at_first``
    stay in the per-scan loop — so one plan serves every scan of the
    same (pool snapshot, request shape) pair.

    A plan converts to Python lists only what its sweep reads.  The
    expiry and cost orders every sweep walks are built with the plan;
    the lists below them (``cached_property``) are built from the numpy
    columns the plan keeps on their first read: the skeleton's loop
    columns, and the runtimes and costs its rules and the eviction sweep
    read.  Alternatives read their legs by a gather of their own
    candidates (:func:`_rows`), never a whole column.  ``extras`` holds the rule-specific orders (time ranks,
    greedy objective ranks, the CSA sweeps' candidate starts and
    survivor-walk column), attached lazily the same way.
    """

    __slots__ = (
        "total",
        "count",
        "mpos",
        "expiry_times",
        "expiry_cands",
        "cand_crank",
        "cand_by_crank",
        "cost_by_crank",
        "cand_pos",
        "cand_node_id",
        "req_c",
        "cost_c",
        "cand_node_row",
        "start_m",
        "insertable",
        "cost_order",
        "expiry_order",
        "expire_c",
        "extras",
        "__dict__",  # the cached_property lists
    )

    @cached_property
    def loop_start(self) -> list:
        """The start of every matching slot: the skeleton's steps."""
        return self.start_m.tolist()

    @cached_property
    def loop_cand(self) -> list:
        """Per matching slot, its candidate index, or -1."""
        insertable = self.insertable
        return np.where(insertable, np.cumsum(insertable) - 1, -1).tolist()

    @cached_property
    def req_by_crank(self) -> list:
        """Runtimes by cost rank."""
        return self.req_c[self.cost_order].tolist()

    @cached_property
    def req_list(self) -> list:
        """Per candidate, its runtime."""
        return self.req_c.tolist()

    @cached_property
    def cost_list(self) -> list:
        """Per candidate, its cost."""
        return self.cost_c.tolist()


def _plan_key(request: ResourceRequest) -> tuple:
    return (
        request.reservation_time,
        request.reference_performance,
        request.deadline,
        request.min_performance,
        request.min_clock_speed,
        request.min_ram,
        request.min_disk,
        request.required_os,
        request.max_price_per_unit,
    )


def _plan_for(arrays: SlotArrays, request: ResourceRequest) -> Optional[_ScanPlan]:
    """The cached scan plan, or ``None`` when the slots are not sorted."""
    cache = getattr(arrays, "_plan_cache", None)
    if cache is None:
        cache = {}
        arrays._plan_cache = cache
    key = _plan_key(request)
    plan = cache.get(key, UNSUPPORTED)
    if plan is not UNSUPPORTED:
        scan_counters["plans_reused"] += 1
        return plan
    start_all = arrays.start
    total = arrays.slot_count
    unsorted = getattr(arrays, "_plan_unsorted", None)
    if unsorted is None:
        # Slot lists with (tolerated or raising) start-order wobble keep
        # the generic loop's slot-by-slot order check; the expiry
        # pointer below also relies on non-decreasing starts.  The
        # verdict is request-independent, so it is taken once per
        # snapshot instead of per plan key.
        unsorted = total > 1 and not bool((start_all[1:] >= start_all[:-1]).all())
        arrays._plan_unsorted = unsorted
    if unsorted:
        return None

    row = arrays.node_row
    match_node = arrays.match_mask(request)
    factor = request.reservation_time * request.reference_performance
    req_node = factor / arrays.performance
    cost_node = arrays.price * req_node
    deadline = request.deadline

    mpos = np.flatnonzero(match_node[row])
    mrow = row[mpos]
    start_m = start_all[mpos]
    req_m = req_node[mrow]
    # The elementwise twin of ``slot.last_start`` and ``slot.fits_from``:
    # a candidate's expiry time is its last start, and it is insertable
    # exactly when it is not expired at its own step.
    end_m = arrays.end[mpos]
    if deadline is not None:
        end_m = np.minimum(end_m, deadline)
    last_m = end_m - req_m
    insertable = last_m >= start_m - TIME_EPSILON

    cpos = mpos[insertable]
    crow = mrow[insertable]
    req_c = req_m[insertable]
    cost_c = cost_node[crow]
    expire_c = last_m[insertable]

    count = int(cpos.size)
    # Total order matching the extractors' stable cost sort:
    # (cost, required_time, arrival).  Both keys are per node, so the
    # nodes are sorted once by (cost, required_time), equal pairs share
    # one dense rank, and a stable sort of the candidates' node ranks
    # keeps arrival (the array index) as the final key: the order of
    # ``np.lexsort((req_c, cost_c))``, ties included.  The ranks are
    # stored in the smallest unsigned type that holds them, which numpy
    # sorts stably by radix.
    node_order = np.lexsort((req_node, cost_node))
    cost_sorted = cost_node[node_order]
    req_sorted = req_node[node_order]
    fresh = np.ones(node_order.size, dtype=bool)
    fresh[1:] = (cost_sorted[1:] != cost_sorted[:-1]) | (req_sorted[1:] != req_sorted[:-1])
    node_rank = np.empty(node_order.size, dtype=np.min_scalar_type(node_order.size))
    node_rank[node_order] = np.cumsum(fresh) - 1
    cost_order = np.argsort(node_rank[crow], kind="stable")
    crank = np.empty(count, dtype=np.int64)
    crank[cost_order] = np.arange(count)
    # Starts are non-decreasing, so candidates expire in precomputed
    # order and one pointer over this order replaces an expiry heap.
    expiry_order = np.argsort(expire_c, kind="stable")

    plan = _ScanPlan()
    plan.total = total
    plan.count = count
    plan.mpos = mpos
    plan.expiry_times = expire_c[expiry_order].tolist()
    plan.expiry_cands = expiry_order.tolist()
    plan.cand_crank = crank.tolist()
    plan.cand_by_crank = cost_order.tolist()
    plan.cost_by_crank = cost_c[cost_order].tolist()
    plan.cand_pos = cpos
    plan.cand_node_id = arrays.node_id[crow]
    plan.req_c = req_c
    plan.cost_c = cost_c
    plan.cand_node_row = crow
    plan.start_m = start_m
    plan.insertable = insertable
    plan.cost_order = cost_order
    plan.expiry_order = expiry_order
    plan.expire_c = expire_c
    plan.extras = {}
    if len(cache) >= PLAN_CACHE_LIMIT:
        cache.pop(next(iter(cache)))
    cache[key] = plan
    scan_counters["plans_built"] += 1
    return plan


def _time_extras(plan: _ScanPlan) -> tuple:
    """The time order (required_time, cost, arrival), lazily cached:
    ``(rank by candidate, candidate by rank, runtime by rank, cost by
    rank)``, the four lists the plan keeps for the cost order."""
    extras = plan.extras.get("time")
    if extras is None:
        time_order = np.lexsort((plan.cost_c, plan.req_c))
        trank = np.empty(plan.count, dtype=np.int64)
        trank[time_order] = np.arange(plan.count)
        extras = (
            trank.tolist(),
            time_order.tolist(),
            plan.req_c[time_order].tolist(),
            plan.cost_c[time_order].tolist(),
        )
        plan.extras["time"] = extras
    return extras


def _greedy_extras(plan: _ScanPlan, arrays: SlotArrays, key_name: str) -> tuple:
    """The greedy criterion's objective-key order, lazily cached: ``(rank
    by candidate, key by rank, key by candidate)``."""
    cache_key = "greedy:" + key_name
    extras = plan.extras.get(cache_key)
    if extras is None:
        if key_name == "energy":
            key_c = arrays.power[plan.cand_node_row] * plan.req_c
        else:
            key_c = plan.req_c
        key_order = np.argsort(key_c, kind="stable")
        krank = np.empty(plan.count, dtype=np.int64)
        krank[key_order] = np.arange(plan.count)
        extras = (krank.tolist(), key_c[key_order].tolist(), key_c.tolist())
        plan.extras[cache_key] = extras
    return extras


def _cand_starts(plan: _ScanPlan) -> list:
    """The window start of every candidate, lazily cached: the steps of
    the CSA sweeps, which step only where a candidate arrives."""
    starts = plan.extras.get("starts")
    if starts is None:
        starts = plan.start_m[plan.insertable].tolist()
        plan.extras["starts"] = starts
    return starts


def _last_starts(plan: _ScanPlan) -> list:
    """Every candidate's expiry time (its last start) in candidate
    order, lazily cached: the eviction scan's keep test reads it."""
    last = plan.extras.get("last")
    if last is None:
        last = plan.expire_c.tolist()
        plan.extras["last"] = last
    return last


def _walk_extras(plan: _ScanPlan) -> list:
    """Expiry index by cost rank, lazily cached on a plan's first
    survivor walk: one sort of a rank prefix of it lists those ranks'
    expiries in expiry order."""
    extras = plan.extras.get("walk")
    if extras is None:
        expiry_index = np.empty(plan.count, dtype=np.int64)
        expiry_index[plan.expiry_order] = np.arange(plan.count)
        extras = expiry_index[plan.cost_order].tolist()
        plan.extras["walk"] = extras
    return extras


def vectorized_scan(
    request: ResourceRequest,
    slots,
    extractor,
    *,
    stop_at_first: bool = False,
):
    """Run the vector kernel, or return :data:`UNSUPPORTED`.

    Returns a :class:`~repro.core.extractors.ScanResult`, ``None`` (no
    feasible window) or :data:`UNSUPPORTED` (caller must run the generic
    loop).
    """
    rule = _strategy_of(extractor)
    if rule is None:
        scan_counters["fallback"] += 1
        return UNSUPPORTED
    resolved = _resolve_arrays(slots)
    if resolved is None:
        scan_counters["fallback"] += 1
        return UNSUPPORTED
    arrays, slot_at = resolved
    plan = _plan_for(arrays, request)
    if plan is None:
        scan_counters["fallback"] += 1
        return UNSUPPORTED
    scan_counters["vectorized"] += 1
    value, best_cands, best_start, steps, peak, inserted, expired, break_pos = (
        rule.scan(plan, arrays, request.node_count, _budget_of(request), stop_at_first)
    )
    if best_cands is None:
        return None
    return ScanResult(
        window=_window(plan, slot_at, best_start, best_cands),
        value=value,
        steps=steps,
        slots_scanned=int(plan.mpos[break_pos]) + 1 if break_pos >= 0 else plan.total,
        candidate_peak=peak,
        candidate_inserts=inserted,
        candidate_expiries=expired,
    )


def vectorized_alternatives(
    request: ResourceRequest,
    slots,
    cap: Optional[int],
    policy: str,
):
    """Every CSA alternative of ``request`` from one sweep, as rows, or
    :data:`UNSUPPORTED`.

    The returned rows (:class:`WindowRow`, one per hit) are the windows
    that repeating ``AMP(policy).select`` and removing each found
    window's slots from the pool (CSA's ``consume`` cutting,
    :func:`~repro.core.algorithms.csa.rerun_alternatives`) collects, at
    most ``cap`` of them — each materializes (:meth:`WindowRow.as_window`)
    to an equal window over the snapshot's own ``Slot`` objects — but
    from one snapshot, one plan and one sweep
    (:func:`_run_cheapest_consume` for the cheapest-``n`` policy,
    :func:`_run_first_consume` for the eviction policy); ``slots`` is
    neither copied nor mutated.  One sweep counts as one
    ``scan_counters["vectorized"]`` dispatch.  On :data:`UNSUPPORTED`
    the caller's repeated scans do their own ``fallback`` counting.
    ``policy`` is the AMP policy the caller holds, ``"first"`` or
    ``"cheapest"``; anything else is an error, not a default.

    An eviction sweep runs only after a pre-check says it can hit: the
    cheapest sweep with one window to find and widened tests
    (:func:`_may_evict_hit`).  When that finds nothing the answer is
    ``[]`` without the eviction sweep; the dispatch still counts once.

    ``slots`` is a :class:`SlotPool` or a sorted :class:`SlotArrays`
    snapshot; only a pool keeps certificates.
    A search that finds nothing on a :class:`SlotPool` is recorded on
    the pool under ``(policy, node count, budget, plan key)``
    (:meth:`SlotPool.certify`), for the cheapest policy when its sweep
    finds nothing, for the eviction policy when the pre-check does.  An
    identical search on the pool answers ``[]`` from that record before
    any snapshot or plan is read, and counts as
    ``scan_counters["certified"]``, not as a dispatch: it is no scan.
    The record holds while the pool only loses free time and is dropped
    when it gains some (see :class:`SlotPool`).  Removals keep a zero a
    zero.  A cheapest sweep's zero says no step has ``n`` alive
    candidates whose ascending cost sum fits the budget; alive means
    inserted and not expired, and both tests read one float per
    candidate, its last start (:func:`~repro.model.slot.fits_from`), so
    at a step whose threshold is ``fl(start - eps)`` the alive set is
    exactly the inserted candidates whose last start reaches it.  On a
    pool with slots dropped, or cut to a sub-span of themselves on the
    same node, every candidate is the candidate of an old slot with the
    same node (so the same cost), a start no earlier and an end, hence a
    last start, no later (float ``min`` and ``-`` are monotone); the old
    slot passed the insertable test too, its last start being no lower
    and its threshold no higher.  Given a hit on the new pool at the
    step of candidate ``c``, take its member ``y`` whose old slot comes
    last in the old scan order: at ``y``'s step in the old pool every
    member was inserted.  Each member's old last start is at least its
    new one, which reaches the threshold at ``c``'s start, and ``y``'s
    old start is no later than its new one, hence than ``c``'s; the
    threshold is monotone in the window start, so every member was
    alive at ``y``'s old step, and the n cheapest alive there, position
    by position no dearer than the members, fit the budget: the old
    sweep would have hit.  The pre-check's zero is a certificate by the
    same argument (:func:`_may_evict_hit`).  A cheapest-policy zero does
    not certify the eviction policy (the eviction scan sums its costs in
    waiting order, not ascending), so the policy is part of the key.
    """
    if policy not in ("first", "cheapest"):
        raise ValueError(f"unknown AMP policy {policy!r}")
    if cap is not None and cap <= 0:
        return []
    n = request.node_count
    budget = _budget_of(request)
    pool = slots if isinstance(slots, SlotPool) else None
    if pool is not None:
        key = (policy, n, budget, _plan_key(request))
        if pool.certified(key):
            scan_counters["certified"] += 1
            return []
    resolved = _resolve_arrays(slots)
    if resolved is None:
        return UNSUPPORTED
    arrays, slot_at = resolved
    plan = _plan_for(arrays, request)
    if plan is None:
        return UNSUPPORTED
    scan_counters["vectorized"] += 1
    if policy == "cheapest":
        hits = _run_cheapest_consume(plan, n, budget, cap)
        proven = not hits
    else:
        proven = not _may_evict_hit(plan, n, budget)
        hits = [] if proven else _run_first_consume(plan, n, budget, cap)
    if proven and pool is not None:
        pool.certify(key, PLAN_CACHE_LIMIT)
    return _rows(plan, slot_at, hits)


def _rows(plan, slot_at, hits) -> list:
    """One :class:`WindowRow` per hit ``(window start, candidates)``.

    The legs' snapshot rows, node ids, runtimes and costs are gathered
    for every hit at once, one short numpy gather per column, and sliced
    per row: no column of the plan is converted whole."""
    if not hits:
        return []
    index = np.array([cand for _, cands in hits for cand in cands], dtype=np.intp)
    rows = plan.cand_pos[index].tolist()
    nodes = plan.cand_node_id[index].tolist()
    times = plan.req_c[index].tolist()
    costs = plan.cost_c[index].tolist()
    found = []
    low = 0
    for start, cands in hits:
        high = low + len(cands)
        found.append(
            WindowRow(
                start,
                slot_at,
                rows[low:high],
                nodes[low:high],
                times[low:high],
                costs[low:high],
            )
        )
        low = high
    return found


def _window(plan, slot_at, start, cands) -> Window:
    """The window of candidates ``cands`` starting at ``start``: the
    snapshot's own ``Slot`` objects (``slot_at(row)``) with the plan's
    runtime/cost floats.  A single scan's winner is materialized as a
    CSA alternative is, through its row (:meth:`WindowRow.as_window`)."""
    return _rows(plan, slot_at, [(start, cands)])[0].as_window()


class WindowRow:
    """A CSA alternative as a row of its scan plan: the window start, and
    per leg the snapshot row, node id, runtime and cost the plan holds.

    Phase two reads an alternative through a small interface, which
    :class:`~repro.model.window.Window` offers too: ``start``,
    ``total_cost``, the criterion values ``runtime``, ``finish``,
    ``processor_time``, ``total_energy`` and ``idle_time``, ``legs()``
    (``(node id, required time)`` per leg) and ``as_window()``.  Only
    the alternative it chooses is materialized; the window holds the
    snapshot's ``Slot`` objects and plain floats, and no plan or
    snapshot.

    Every value is the float the materialized window computes.  The
    legs are in the sweep's order — ascending cost rank for the
    cheapest policy, waiting order for the eviction policy — and
    ``total_cost`` adds their costs left to right, as the sweep's own
    budget test did and as :attr:`Window.total_cost` does (one
    :func:`~repro.model.window.left_sum` order, bit for bit).  The other
    values apply :class:`Window`'s own operations to the same floats in
    the same order.  A row keeps its snapshot alive (``slot_at`` is
    bound to it), so rows are meant to die with the cycle that found
    them.
    """

    __slots__ = (
        "start",
        "total_cost",
        "_slot_at",
        "_rows",
        "_nodes",
        "_times",
        "_costs",
        "_window",
    )

    def __init__(
        self,
        start: float,
        slot_at,
        rows: list[int],
        nodes: list[int],
        times: list[float],
        costs: list[float],
    ) -> None:
        self.start = start
        self.total_cost = left_sum(costs)
        self._slot_at = slot_at  # the snapshot's slot at a row
        self._rows = rows  # per leg: the snapshot row of its slot
        self._nodes = nodes  # per leg: node id
        self._times = times  # per leg: required time
        self._costs = costs  # per leg: cost
        self._window: Optional[Window] = None

    def legs(self):
        """``(node id, required time)`` per leg, in the window's order."""
        return zip(self._nodes, self._times)

    @property
    def runtime(self) -> float:
        return max(self._times)

    @property
    def finish(self) -> float:
        return self.start + self.runtime

    @property
    def processor_time(self) -> float:
        return left_sum(self._times)

    @property
    def total_energy(self) -> float:
        slot_at = self._slot_at
        return left_sum(
            slot_at(row).node.power() * time for row, time in zip(self._rows, self._times)
        )

    @property
    def idle_time(self) -> float:
        runtime = self.runtime
        return left_sum(runtime - time for time in self._times)

    def as_window(self) -> Window:
        """The row's :class:`Window` (built on the first call, then kept)."""
        window = self._window
        if window is None:
            slot_at = self._slot_at
            window = self._window = Window(
                start=self.start,
                slots=tuple(
                    WindowSlot(slot=slot_at(row), required_time=time, cost=cost)
                    for row, time, cost in zip(self._rows, self._times, self._costs)
                ),
            )
        return window


class _TopN:
    """The ``n`` smallest alive ranks of one total order.

    ``top`` is the sorted member list; every other tracked rank waits in
    the lazy min-heap ``beyond`` (entries of expired candidates are
    flagged in ``dead`` and discarded on pop), so membership changes are
    O(log) amortized.  Every alive entry of ``beyond`` ranks above
    ``top[-1]``, and ``beyond`` holds alive entries only while ``top`` is
    full.  With ``values`` (indexed by rank), ``total`` is the members'
    value sum, recomputed over the sorted ranks on every membership
    change by an inline twin of :func:`~repro.model.window.left_sum`
    (inline for speed) over the ascending order ``cheapest_subset``
    sums, so budget verdicts and the MinTotalCost value are
    byte-identical.
    """

    __slots__ = ("n", "values", "top", "beyond", "dead", "total")

    def __init__(self, n: int, size: int, values: Optional[list] = None) -> None:
        self.n = n
        self.values = values
        self.top: list[int] = []
        self.beyond: list[int] = []
        self.dead = bytearray(size)  # indexed by rank
        self.total = 0.0

    def add(self, rank: int) -> None:
        """Track a newly alive rank."""
        top = self.top
        if len(top) == self.n:
            if rank > top[-1]:
                heappush(self.beyond, rank)
                return
            heappush(self.beyond, top.pop())
        insort(top, rank)
        self._resum()

    def expire(self, rank: int) -> None:
        """Drop an expired rank, refilling ``top`` from ``beyond``."""
        dead = self.dead
        dead[rank] = 1
        top = self.top
        index = bisect_left(top, rank)
        if index == len(top) or top[index] != rank:
            return  # waiting in ``beyond`` (discarded on pop) or never tracked
        del top[index]
        beyond = self.beyond
        while beyond:
            refill = heappop(beyond)
            if not dead[refill]:
                top.append(refill)  # ranks above every member
                break
        self._resum()

    def reset(self, ranks: list[int]) -> None:
        """Restart from the sorted alive ``ranks`` (dead flags stay valid:
        candidates expire at most once, so a flagged rank never returns)."""
        self.top = ranks[: self.n]
        self.beyond = ranks[self.n :]  # ascending, hence already a heap
        self._resum()

    def _resum(self) -> None:
        values = self.values
        if values is not None:
            total = 0.0
            for rank in self.top:
                total += values[rank]
            self.total = total


# ----------------------------------------------------------------------
# The sweep skeleton and its rules.  A scan's outcome is ``(value,
# candidates, window start, steps, peak, inserts, expiries, break
# position)``, the tuple :func:`vectorized_scan` reads.
# ----------------------------------------------------------------------
def _sweep(plan, n, stop_at_first, rule):
    """One AEP pass over the plan, the criterion given by ``rule``.

    ``rule`` is the ``(expire, add, step)`` hook triple a rule's
    ``hooks`` binds for one scan.  ``expire(cand)`` and ``add(cand)``
    see every candidate leave and enter the alive set, in the generic
    loop's order; ``step(window_start, best_value)`` runs at every step
    with at least ``n`` alive and returns ``None`` (skipped, or no
    feasible extraction) or ``(value, candidates)``.  The incumbent, the
    counters and the break are the skeleton's alone.

    The pointer expires exactly the candidates the generic loop does:
    both read a candidate's last start against ``fl(start - eps)``, a
    threshold monotone in the window start, and a candidate is inserted
    only when its last start reaches its own step's threshold, so the
    pointer never meets a candidate that is not inserted yet.
    """
    expire, add, step = rule
    loop_cand = plan.loop_cand
    expiry_times = plan.expiry_times
    expiry_cands = plan.expiry_cands
    total_c = plan.count
    pointer = 0
    alive = inserted = expired = peak = steps = 0
    best_value = float("inf")
    best_start = 0.0
    best_cands = None
    break_pos = -1
    for pos, window_start in enumerate(plan.loop_start):
        threshold = window_start - TIME_EPSILON
        while pointer < total_c and expiry_times[pointer] < threshold:
            expire(expiry_cands[pointer])
            pointer += 1
            expired += 1
            alive -= 1
        cand = loop_cand[pos]
        if cand < 0:
            continue
        add(cand)
        inserted += 1
        alive += 1
        if alive > peak:
            peak = alive
        if alive < n:
            continue
        steps += 1
        found = step(window_start, best_value)
        if found is not None and found[0] < best_value - VALUE_EPSILON:
            best_value, best_cands = found
            best_start = window_start
            if stop_at_first:
                break_pos = pos
                break
    return (
        best_value,
        best_cands,
        best_start,
        steps,
        peak,
        inserted,
        expired,
        break_pos,
    )


class _Rule:
    """A criterion of the skeleton: ``hooks`` binds its per-scan state."""

    def scan(self, plan, arrays, n, budget, stop_at_first):
        return _sweep(plan, n, stop_at_first, self.hooks(plan, arrays, n, budget))


@dataclass(frozen=True)
class _Walk(_Rule):
    """MinRuntime and MinFinish, each by substitution or exact sweep.

    The alive candidates are kept as ranks of the extraction's order —
    ``(cost, required_time, arrival)`` for the substitution walk,
    ``(required_time, cost, arrival)`` for the exact sweep — so a step
    hands the replay its input already sorted.  The two criteria differ
    in their skip bound:

    - MinRuntime (budget-aware certificate): a window improving on
      ``best`` consists of n candidates whose runtimes are all below
      ``T = best − ε`` and whose costs sum within the budget, so the
      minimum such cost sum is the n cheapest among the alive candidates
      with runtime < T.  ``T`` is constant between improvements, which
      makes that sum maintainable with the standard top-n discipline
      (rebuilt from the alive set at the first step after an
      improvement); while it exceeds the slack-widened budget — or fewer
      than n candidates qualify — the step is skipped.
    - MinFinish (start + runtime): the threshold shifts with every
      window start, so each step is bounded by ``start + (n-th shortest
      alive runtime)``, an exact lower bound on any extraction's finish
      time (float ``+`` is monotone, so no slack is needed).
    """

    exact: bool
    finish: bool

    def hooks(self, plan, arrays, n, budget):
        exact = self.exact
        finish = self.finish
        if exact:
            order = _time_extras(plan)
            extract = _exact_sweep
        else:
            order = (
                plan.cand_crank,
                plan.cand_by_crank,
                plan.req_by_crank,
                plan.cost_by_crank,
            )
            extract = _substitution_walk
        cand_erank, cand_by_erank, req_by_erank, cost_by_erank = order
        alive_eval: list[int] = []  # alive candidates as extraction-order ranks

        def evaluate(window_start):
            extraction = extract(
                [req_by_erank[r] for r in alive_eval],
                [cost_by_erank[r] for r in alive_eval],
                n,
                budget,
            )
            if extraction is None:
                return None
            value, positions = extraction
            if finish:
                value = window_start + value
            return value, [cand_by_erank[alive_eval[p]] for p in positions]

        if finish:
            cand_trank, _, req_by_trank, _ = _time_extras(plan)
            ranked = cand_trank
            tracked = _TopN(n, plan.count)  # time ranks: the n shortest runtimes

            def add(cand):
                insort(alive_eval, cand_erank[cand])
                tracked.add(cand_trank[cand])

            def step(window_start, best_value):
                shortest = req_by_trank[tracked.top[-1]]
                if window_start + shortest < best_value - VALUE_EPSILON:
                    return evaluate(window_start)
                return None

        else:
            cand_crank = plan.cand_crank
            req_by_crank = plan.req_by_crank
            req_list = plan.req_list
            skip_budget = budget + _BOUND_SLACK * (1.0 + abs(budget))
            ranked = cand_crank
            tracked = _TopN(n, plan.count, plan.cost_by_crank)  # runtime < T
            incumbent = threshold_time = float("inf")  # T = best − ε

            def add(cand):
                insort(alive_eval, cand_erank[cand])
                if req_list[cand] < threshold_time:
                    tracked.add(cand_crank[cand])

            def step(window_start, best_value):
                nonlocal incumbent, threshold_time
                if best_value != incumbent:
                    # The incumbent improved since the last step: rebuild
                    # the qualifying top-n from the alive set under the
                    # tighter T.
                    incumbent = best_value
                    threshold_time = best_value - VALUE_EPSILON
                    if exact:
                        alive_cranks = sorted(
                            cand_crank[cand_by_erank[r]] for r in alive_eval
                        )
                    else:
                        alive_cranks = alive_eval
                    tracked.reset(
                        [r for r in alive_cranks if req_by_crank[r] < threshold_time]
                    )
                if len(tracked.top) == n and tracked.total <= skip_budget:
                    return evaluate(window_start)
                return None

        def expire(cand):
            alive_eval.remove(cand_erank[cand])
            tracked.expire(ranked[cand])

        return expire, add, step


@dataclass(frozen=True)
class _Greedy(_Rule):
    """Additive-objective criterion: cheapest-n feasibility + swap search.

    Bounded by the sum of the n smallest alive objective keys (minus
    :data:`_BOUND_SLACK`, covering summation-order drift); the swap
    search replays the object extractor's in-place exchanges exactly.
    """

    key_name: str
    max_rounds: int

    def hooks(self, plan, arrays, n, budget):
        cand_krank, key_by_krank, key_list = _greedy_extras(
            plan, arrays, self.key_name
        )
        max_rounds = self.max_rounds
        cand_crank = plan.cand_crank
        cand_by_crank = plan.cand_by_crank
        cost_list = plan.cost_list
        alive_cands: list[int] = []  # alive candidate indices (arrival order)
        cheap = _TopN(n, plan.count, plan.cost_by_crank)
        smallest = _TopN(n, plan.count, key_by_krank)

        def expire(cand):
            alive_cands.remove(cand)
            cheap.expire(cand_crank[cand])
            smallest.expire(cand_krank[cand])

        def add(cand):
            alive_cands.append(cand)  # candidate indices arrive in order
            cheap.add(cand_crank[cand])
            smallest.add(cand_krank[cand])

        def step(window_start, best_value):
            if cheap.total > budget:
                return None  # cheapest_subset would return None
            key_sum = smallest.total
            bound = key_sum - _BOUND_SLACK * (1.0 + abs(key_sum))
            if not (bound < best_value - VALUE_EPSILON):
                return None
            current = [cand_by_crank[r] for r in cheap.top]
            in_window = set(current)
            outside = [c for c in alive_cands if c not in in_window]
            return _swap_search(
                current,
                [key_list[c] for c in current],
                [cost_list[c] for c in current],
                outside,
                [key_list[c] for c in outside],
                [cost_list[c] for c in outside],
                budget,
                max_rounds,
            )

        return expire, add, step


@dataclass(frozen=True)
class _Random(_Rule):
    """Simplified MinProcTime (a random window per step), draw for draw.

    Replays ``RandomWindowExtractor.extract`` on the extractor's *own*
    generator: at every step with at least ``n`` alive candidates, one
    ``rng.choice(alive, size=n, replace=False)`` per attempt over the
    alive list in scan order, the picked costs summed in pick order
    against the budget; when every attempt busts it, the ``n`` cheapest
    (``cheap`` is ``cheapest_subset``: same order, same ascending sum),
    their runtimes summed in cost-rank order.  Candidates are numbered
    in scan order, so the alive list stays sorted: an insert appends and
    an expiry bisects.

    There is no skip bound.  A skipped step would not draw, and every
    later selection — this scan's, the next job's, the next cycle's
    environment when the caller shares the generator — depends on the
    stream position, so the scan must leave the generator in the state
    the generic loop leaves it in.  The per-step cost floor is therefore
    one ``Generator.choice`` call.
    """

    rng: np.random.Generator
    attempts: int

    def hooks(self, plan, arrays, n, budget):
        choice = self.rng.choice
        attempts = range(self.attempts)
        cand_crank = plan.cand_crank
        cand_by_crank = plan.cand_by_crank
        req_list = plan.req_list
        cost_list = plan.cost_list
        alive_cands: list[int] = []  # alive candidates in scan order (ascending)
        cheap = _TopN(n, plan.count, plan.cost_by_crank)

        def expire(cand):
            del alive_cands[bisect_left(alive_cands, cand)]
            cheap.expire(cand_crank[cand])

        def add(cand):
            alive_cands.append(cand)
            cheap.add(cand_crank[cand])

        def step(window_start, best_value):
            alive = len(alive_cands)
            for _ in attempts:
                chosen = [
                    alive_cands[i] for i in choice(alive, size=n, replace=False).tolist()
                ]
                if left_sum([cost_list[c] for c in chosen]) <= budget:
                    break
            else:
                if cheap.total > budget:
                    return None  # cheapest_subset would return None
                chosen = [cand_by_crank[r] for r in cheap.top]
            return left_sum([req_list[c] for c in chosen]), chosen

        return expire, add, step


@dataclass(frozen=True)
class _Cheapest(_Rule):
    """Earliest start (``start_valued``) or minimum total cost.

    Both extract the n cheapest alive candidates when their ascending
    cost sum (``cheapest_subset``'s) fits the budget; the value is the
    window start or that sum.  No step is skipped: the only work a step
    does beyond the sum the top-n keeps is the winners' list, built
    only for an improvement.
    """

    start_valued: bool

    def hooks(self, plan, arrays, n, budget):
        start_valued = self.start_valued
        cand_crank = plan.cand_crank
        cand_by_crank = plan.cand_by_crank
        cheap = _TopN(n, plan.count, plan.cost_by_crank)

        def expire(cand):
            cheap.expire(cand_crank[cand])

        def add(cand):
            cheap.add(cand_crank[cand])

        def step(window_start, best_value):
            if cheap.total > budget:
                return None  # cheapest_subset would return None
            value = window_start if start_valued else cheap.total
            if value < best_value - VALUE_EPSILON:
                return value, [cand_by_crank[r] for r in cheap.top]
            return None

        return expire, add, step


#: The rules of the extractors whose replay reads no parameter of theirs,
#: by exact type; MinFinish by the type of its runtime extractor.
_RULES = {
    EarliestStartExtractor: _Cheapest(start_valued=True),
    MinTotalCostExtractor: _Cheapest(start_valued=False),
    MinRuntimeSubstitutionExtractor: _Walk(exact=False, finish=False),
    MinRuntimeExactExtractor: _Walk(exact=True, finish=False),
}
_FINISH_RULES = {
    MinRuntimeSubstitutionExtractor: _Walk(exact=False, finish=True),
    MinRuntimeExactExtractor: _Walk(exact=True, finish=True),
}


# ----------------------------------------------------------------------
# The sweeps outside the skeleton.
# ----------------------------------------------------------------------
def _rank_bound(cost_by_crank, n, budget) -> int:
    """The first cost rank ``r >= n - 1`` with ``head + cost_by_crank[r]
    > budget`` (``len(cost_by_crank)`` if none), where ``head`` is the
    ascending float sum of the ``n - 1`` cheapest costs (an inline twin
    of :func:`~repro.model.window.left_sum`); ``n`` must not
    exceed the number of costs.  Costs ascend by rank and float ``+`` is
    monotone, so the test is monotone in ``r`` and a binary search finds
    the first failing rank (by hand: ``bisect``'s ``key=`` needs Python
    3.10)."""
    head = 0.0
    for rank in range(n - 1):
        head += cost_by_crank[rank]
    low, high = n - 1, len(cost_by_crank)
    while low < high:
        middle = (low + high) // 2
        if head + cost_by_crank[middle] <= budget:
            low = middle + 1
        else:
            high = middle
    return low


def _run_cheapest_consume(plan, n, budget, cap):
    """CSA's repeated earliest-start search as one continuing sweep.

    Returns ``[(window start, candidates), ...]``: the windows that
    re-running the stop-at-first cheapest-``n`` scan from slot 0, each
    time on a pool without the slots of the windows found so far, yields
    one after another — at most ``cap`` of them.

    Continuing instead of restarting is exact because the alive set at a
    step is "inserted, not expired, not consumed", independent of how the
    scan got there.  After a hit at step *p* a restarted scan sees, at
    every earlier step, a subset of what the previous scan saw: either
    fewer than ``n`` alive, or an n-cheapest sum that is no smaller (both
    summed ascending in the same ``(cost, required_time, arrival)`` order,
    float ``+`` being monotone in each operand) and hence still over the
    budget — so its first hit is at step >= *p*.  The same monotonicity
    puts *p*'s own slot into every window found at *p* (were the n
    cheapest all older, the step that inserted the youngest of them
    would have hit already), so the restarted scan has no step *p* and
    the sweep simply moves on.  Consumed candidates leave the top-n at
    once and are skipped by the expiry pointer.  Relative cost ranks
    among the survivors equal those of a rebuilt plan, so every sum (an
    inline twin of :func:`~repro.model.window.left_sum`, inline for
    speed) adds the same floats in the same order.

    The same argument says which steps can hit at all.  After every step
    — a miss, or a hit once its winners are consumed — fewer than ``n``
    are alive or the n-cheapest sum is over the budget, and expiry and
    consumption only shrink the alive set, which only raises that sum.
    So the budget is tested, and the sum taken, only at a step whose own
    slot enters the n cheapest; a step whose slot ranks above all of
    them leaves the sum where it was and moves on.  Hence the sweep
    steps only where a candidate arrives (:func:`_cand_starts`), not at
    every matching slot: window starts are non-decreasing, so an expiry
    that falls between two steps is applied at the later one, the first
    step to read the alive set after it.

    Nor can every candidate hit: the budget bounds the cost ranks that
    can.  Let ``head`` be the ascending float sum of the plan's ``n - 1``
    cheapest costs and ``bound`` the first rank ``r >= n - 1`` with
    ``head + cost_by_crank[r] > budget`` (:func:`_rank_bound`).
    *Exactness.*  Take any n-set containing a rank ``r >= bound``.  Its
    ascending ranks are, position by position, at least ``0, 1, ...,
    n - 2`` and ``r``; costs ascend with rank and float ``+`` is
    monotone in each operand, so the sweep's ascending sum of that set
    is at least ``head + c_r`` — over the budget.  Only the rank prefix
    ``[0, bound)`` can ever hit, and the sweep never inserts the rest.
    That moves nothing: the n cheapest alive survivors are the n
    cheapest alive candidates whenever those are all survivors, and if
    a pruned rank is among the n cheapest alive, fewer than ``n``
    survivors are alive, so neither sweep hits there — no hit, and no
    consumption, changes.  ``bound < n`` is the sweep that cannot hit
    at all (the plan's n cheapest ranks bust the budget, the old
    ``cheapest_sum > budget`` test): it returns at once.

    The survivor share ``bound / count`` picks one of two regimes.  At
    or below :data:`_WALK_SHARE` the sweep steps at the survivors alone:
    in scan order (candidates are numbered in scan order, so that is one
    sort of the prefix of ``cand_by_crank``), with their expiries alone
    in expiry order (one sort of the prefix of a cached rank → expiry
    index column, :func:`_walk_extras`).  Above the share the sorts
    would cost more than the steps they save, so the sweep steps at
    every candidate and skips pruned ranks inline.
    """
    cand_crank = plan.cand_crank
    cand_by_crank = plan.cand_by_crank
    cost_by_crank = plan.cost_by_crank
    total_c = plan.count
    if total_c < n:
        return []
    bound = _rank_bound(cost_by_crank, n, budget)
    if bound < n:
        return []
    starts = _cand_starts(plan)
    expiry_times = plan.expiry_times
    expiry_cands = plan.expiry_cands
    if bound <= _WALK_SHARE * total_c:
        steps = sorted(cand_by_crank[:bound])
        starts = [starts[cand] for cand in steps]
        order = sorted(_walk_extras(plan)[:bound])
        expiry_times = [expiry_times[index] for index in order]
        expiry_cands = [expiry_cands[index] for index in order]
    else:
        steps = range(total_c)
    expiry_count = len(expiry_times)
    flags = bytearray(total_c)  # by rank: inserted, not expired, not consumed
    top: list[int] = []  # the min(n, alive) smallest flagged ranks, ascending
    pointer = 0
    alive = 0
    hits: list[tuple[float, list[int]]] = []
    for cand, window_start in zip(steps, starts):
        threshold = window_start - TIME_EPSILON
        while pointer < expiry_count and expiry_times[pointer] < threshold:
            rank = cand_crank[expiry_cands[pointer]]
            pointer += 1
            if not flags[rank]:
                continue  # pruned, or consumed by a hit
            flags[rank] = 0
            alive -= 1
            last = top[-1]
            if rank <= last:  # a member: ``top`` holds every flagged rank <= last
                del top[bisect_left(top, rank)]
                if alive >= n:
                    top.append(flags.find(1, last + 1))
        rank = cand_crank[cand]
        if rank >= bound:
            continue  # pruned: in no window
        flags[rank] = 1
        alive += 1
        if len(top) == n:
            if rank > top[-1]:
                continue  # the n cheapest did not change: still over budget
            top.pop()
        insort(top, rank)
        if alive < n:
            continue
        cheap_sum = 0.0
        for member in top:
            cheap_sum += cost_by_crank[member]
        if cheap_sum > budget:
            continue
        hits.append((window_start, [cand_by_crank[member] for member in top]))
        if len(hits) == cap:
            break
        for member in top:
            flags[member] = 0
        alive -= n
        # Everything still flagged ranks above the consumed members.
        refill = top[-1]
        top = []
        while len(top) < n and len(top) < alive:
            refill = flags.find(1, refill + 1)
            top.append(refill)
    return hits


def _may_evict_hit(plan, n, budget) -> bool:
    """Whether the eviction sweep (:func:`_run_first_consume`) can find
    a window: ``False`` proves it finds none.

    Runs the cheapest sweep (:func:`_run_cheapest_consume`) for one
    window with the budget widened to ``B' = budget + _BOUND_SLACK * n *
    budget``.  Every window the eviction sweep finds is an n-set of
    co-alive candidates within budget, so this sweep hits at that
    window's step or earlier.  Only the budget needs widening; with ``u =
    2**-53`` and ``|fl(x) - x| <= u |x|`` for every operation:

    *Alive.*  Both sweeps step at the plan's candidates, insert each at
    its own step, and keep a candidate at window start ``ws`` exactly
    when its last start is at least ``fl(ws - eps)`` — the same floats
    compared the same way, a threshold monotone in ``ws``.  Neither
    consumes anything before this sweep's first hit, so a candidate the
    eviction scan keeps at ``p``, in any of its runs, has been inserted
    by this sweep and not expired at any step up to ``p``.

    *Budget.*  Costs are non-negative (prices are), so a float sum of
    ``n`` of them, left to right, is within ``2 n u`` of their exact
    sum, relatively.  The eviction scan's ``left_sum`` in waiting order
    is at most the budget, so the ascending sum of the same costs is at
    most ``budget (1 + 2 n u) / (1 - 2 n u) <= budget (1 + 5 n u)``.  ``B'`` as computed is at
    least ``budget (1 + _BOUND_SLACK n (1 - u)**2) (1 - u)``, which is
    more, since ``_BOUND_SLACK`` exceeds ``7 u`` by far.  An infinite
    budget stays infinite.

    *Hit.*  Let the eviction sweep, in any of its runs, hit at step
    ``p`` with members ``W``.  All of them are candidates at or before
    ``p``, alive here at ``p``.  Their ascending sum is within ``B'``,
    so every member's cost rank is below the widened rank bound
    (:func:`_run_cheapest_consume`'s argument).  The n cheapest alive
    candidates at ``p`` are, in ascending order, position by position no
    dearer than ``W``, and float ``+`` is monotone, so their sum is
    within ``B'`` and this sweep hits at ``p`` if it has not hit before.
    The converse does not hold: a hit here only means the eviction sweep
    must run.  A zero here is a certificate as a cheapest-policy zero is
    (:func:`vectorized_alternatives`): the widened budget is fixed by
    the key.
    """
    wide = budget + _BOUND_SLACK * n * budget
    return bool(_run_cheapest_consume(plan, n, wide, 1))


def _run_first_consume(plan, n, budget, cap):
    """CSA's repeated eviction scan as one sweep that resumes from
    checkpoints.

    Returns ``[(window start, candidates), ...]``: the windows that
    re-running the paper-faithful AMP (``AMP("first").select``: the
    longest-waiting legs in scan order, the most expensive of the first
    ``n`` evicted while they exceed the budget) from slot 0, each time
    on a pool without the slots of the windows found so far, yields one
    after another — at most ``cap`` of them.  Every float operation is
    the object loop's own: a waiting leg stays while its last start is
    at least ``window_start - epsilon`` (the plan's expiry time is the
    object leg's :func:`~repro.model.slot.last_start`),
    :func:`~repro.model.window.left_sum` over the forming window's
    costs, the first index of their maximum for the eviction.

    Unlike the cheapest policy (:func:`_run_cheapest_consume`), this
    scan cannot simply continue after a hit: evictions are history.  A
    consumed slot no longer fills the forming window, so a leg that was
    evicted while it did survives in the re-run and may complete a
    window the continuing scan never sees.  A restart is exact from a
    checkpoint, though.  The scan's whole state at entry to a step is
    the waiting list, and that depends only on the slots before the step
    and on which of them are consumed.  A hit's members all arrived at
    or after the step of its first (longest-waiting) member, so the
    re-run repeats its predecessor up to that step: it resumes from the
    waiting list recorded there — one checkpoint per step, overwritten
    whenever a later run passes the step again, so a list that still
    holds a since-consumed slot is never resumed from — instead of from
    slot 0.

    Steps are the plan's insertable candidates only.  The object loop
    also filters its waiting list at matching slots that insert nothing,
    but the test is monotone in the window start, so the filter at
    the next inserting step removes the same legs, and the list is only
    read after an insertion.  The list holds at most ``n - 1`` legs
    between steps (a step that reaches ``n`` either hits or evicts one),
    so the forming window is the whole list and the object loop's
    ``while`` runs at most once per step.
    """
    start_list = _cand_starts(plan)
    last_list = _last_starts(plan)
    cost_list = plan.cost_list
    total_c = plan.count
    consumed = bytearray(total_c)  # indexed by candidate
    # entry[c]: the waiting list at entry to candidate c's step, as the
    # latest run to pass that step saw it.  Recorded lists are never
    # mutated (every step filters into a fresh list).
    entry: list = [None] * total_c
    waiting: list[int] = []
    hits: list[tuple[float, list[int]]] = []
    cand = 0
    while cand < total_c:
        if consumed[cand]:
            cand += 1
            continue
        entry[cand] = waiting
        window_start = start_list[cand]
        threshold = window_start - TIME_EPSILON
        waiting = [c for c in waiting if last_list[c] >= threshold]
        waiting.append(cand)
        cand += 1
        if len(waiting) < n:
            continue
        costs = [cost_list[c] for c in waiting]
        if left_sum(costs) <= budget:
            hits.append((window_start, waiting))
            if len(hits) == cap:
                break
            for member in waiting:
                consumed[member] = 1
            # The longest-waiting member heads the window; no step
            # before its own saw any slot this cut removes.
            cand = waiting[0] + 1
            waiting = entry[waiting[0]]
        else:
            del waiting[costs.index(max(costs))]
    return hits


# ----------------------------------------------------------------------
# Extraction replays (primitive twins of the object extractors).
# ----------------------------------------------------------------------
def _substitution_walk(times, costs, n, budget):
    """Primitive twin of ``MinRuntimeSubstitutionExtractor.extract``.

    ``times``/``costs`` are the alive candidates in the exact
    ``(cost, required_time, arrival)`` order; returns ``(value,
    positions)`` with positions in the walk's final (swap) order.  The
    first-longest index is maintained across non-swapping iterations —
    it only changes when a swap replaces it, where the object twin
    recomputes the same argmax the next iteration would.
    """
    total = len(times)
    if total < n:
        return None
    cost = 0.0
    for index in range(n):
        cost += costs[index]
    if cost > budget:
        return None
    chosen = list(range(n))
    chosen_times = times[:n]
    chosen_costs = costs[:n]
    longest_index = 0
    longest_time = chosen_times[0]
    for inner in range(1, n):
        if chosen_times[inner] > longest_time:
            longest_time = chosen_times[inner]
            longest_index = inner
    for index in range(n, total):
        short_time = times[index]
        if (
            short_time < longest_time
            and cost - chosen_costs[longest_index] + costs[index] <= budget
        ):
            cost += costs[index] - chosen_costs[longest_index]
            chosen[longest_index] = index
            chosen_times[longest_index] = short_time
            chosen_costs[longest_index] = costs[index]
            longest_index = 0
            longest_time = chosen_times[0]
            for inner in range(1, n):
                if chosen_times[inner] > longest_time:
                    longest_time = chosen_times[inner]
                    longest_index = inner
    return max(chosen_times), chosen


def _exact_sweep(times, costs, n, budget):
    """Primitive twin of ``MinRuntimeExactExtractor.extract``.

    ``times``/``costs`` in ``(required_time, cost, arrival)`` order;
    returns ``(value, positions)`` with positions in the kept-dict
    insertion order the object extractor produces.
    """
    total = len(times)
    if total < n:
        return None
    heap: list[tuple[float, int]] = []
    kept: dict[int, int] = {}
    cost_sum = 0.0
    for index in range(total):
        cost = costs[index]
        if len(heap) < n:
            heappush(heap, (-cost, index))
            kept[index] = index
            cost_sum += cost
        elif cost < -heap[0][0]:
            _, evicted = heapreplace(heap, (-cost, index))
            cost_sum += cost - costs[evicted]
            kept.pop(evicted)
            kept[index] = index
        if len(heap) == n and cost_sum <= budget:
            chosen = list(kept.values())
            value = times[chosen[0]]
            for position in chosen[1:]:
                if times[position] > value:
                    value = times[position]
            return value, chosen
    return None


def _swap_search(
    current,
    current_keys,
    current_costs,
    outside,
    outside_keys,
    outside_costs,
    budget,
    max_rounds,
):
    """Primitive twin of ``GreedyAdditiveExtractor._swap_search``.

    Mutates and returns ``current`` (candidate indices) in the final
    in-place swap positions; the float updates replicate the object
    implementation operation for operation.
    """
    cost = 0.0
    for value in current_costs:
        cost += value
    out_range = range(len(outside))
    size = len(current)
    for _ in range(max_rounds):
        best_gain = 0.0
        best_swap = None
        for out_index in range(size):
            out_cost = current_costs[out_index]
            out_key = current_keys[out_index]
            headroom = cost - out_cost
            for in_index in out_range:
                if headroom + outside_costs[in_index] > budget:
                    continue
                gain = out_key - outside_keys[in_index]
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_swap = (out_index, in_index)
        if best_swap is None:
            break
        out_index, in_index = best_swap
        cost += outside_costs[in_index] - current_costs[out_index]
        current[out_index], outside[in_index] = (
            outside[in_index],
            current[out_index],
        )
        current_keys[out_index], outside_keys[in_index] = (
            outside_keys[in_index],
            current_keys[out_index],
        )
        current_costs[out_index], outside_costs[in_index] = (
            outside_costs[in_index],
            current_costs[out_index],
        )
    value = 0.0
    for key in current_keys:
        value += key
    return value, current
