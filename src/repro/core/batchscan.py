"""Cycle-level batched AEP scan: scan-class grouping and shared sweeps.

The paper's two-phase scheme evaluates phase 1 *per job*, and until this
module the kernel mirrored that: one :func:`repro.core.aep.aep_scan`
call per queued job, rebuilding the candidate evolution N times per
cycle even when N jobs share a request shape.  Heavy-traffic serving
(the ROADMAP north star) makes the *cycle* the unit of kernel work
instead:

1. **Scan-class grouping.**  A scan's outcome is a pure function of
   ``(slots, extractor, stop_at_first)`` and the request fields the scan
   reads — the plan fields (:func:`repro.core.vectorized._plan_key`),
   ``node_count`` and ``effective_budget``.  :func:`scan_class_key`
   captures exactly those fields, so jobs with equal keys receive one
   scan and share the resulting :class:`~repro.core.aep.ScanResult`.
   Sharing is decision-safe downstream: a window conflicts with itself
   (:meth:`repro.model.Window.conflicts_with`), so phase 2 can never
   assign a shared window to two jobs.
2. **Shared multi-budget sweeps.**  For the cheapest-subset criteria
   (earliest-start / min-total-cost) the candidate evolution is
   budget-independent, so classes that differ only in budget are served
   by *one* sweep (:func:`repro.core.vectorized._run_cheapest_multi`,
   the same routine a single scan runs with one budget) that resolves
   every budget's verdict from the shared ``cheap_sum`` stream.
3. **Shared fallback caches.**  Every other class pays one
   :func:`~repro.core.aep.aep_scan`; those share one
   :class:`~repro.core.candidates.LegFactory` per
   ``(reservation_time, reference_performance)`` shape.

Every result is byte-identical to the sequential per-job scan — the
property suite in ``tests/core/test_batchscan.py`` fingerprints both
paths across all stock criteria.  Grouping telemetry lands in
:data:`repro.core.vectorized.scan_counters` (``grouped_jobs``,
``grouped_classes``, ``grouped_shared``, ``batch_sweeps``,
``batch_sweep_classes``).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.core.aep import ScanResult, aep_scan, request_of
from repro.core.candidates import LegFactory, leg_shape_key
from repro.core.extractors import WindowExtractor, _budget_of
from repro.core.vectorized import (
    _Cheapest,
    _materialize,
    _plan_for,
    _plan_key,
    _resolve_arrays,
    _run_cheapest_multi,
    _strategy_of,
    scan_counters,
)
from repro.model.job import Job, ResourceRequest
from repro.model.slotpool import SlotPool

JobLike = Union[Job, ResourceRequest]


def scan_class_key(request: ResourceRequest) -> tuple:
    """The value identity under which two requests receive one scan.

    Two requests with equal keys produce byte-identical scan outcomes
    for any ``(slots, extractor, stop_at_first)``: the scan reads only
    the matching/runtime/deadline fields (all in
    :func:`~repro.core.vectorized._plan_key`), the window width
    ``node_count``, and the budget through
    :attr:`~repro.model.job.ResourceRequest.effective_budget` (the
    extractors' ``_budget_of`` slack is a function of the effective
    budget alone).  Raw ``budget`` is deliberately absent: ``budget=None``
    and an explicit budget equal to the price-based default are the same
    scan.
    """
    return (_plan_key(request), request.node_count, request.effective_budget)


def batch_aep_scan(
    jobs: Iterable[JobLike],
    slots,
    extractor: WindowExtractor,
    *,
    stop_at_first: bool = False,
) -> List[Optional[ScanResult]]:
    """Run the AEP scheme for a whole job batch, one scan per class.

    Parameters
    ----------
    jobs:
        The cycle's jobs (or bare requests), in any order.
    slots:
        Available slots ordered by non-decreasing start time, exactly as
        :func:`~repro.core.aep.aep_scan` requires.  Must be re-iterable
        (a :class:`~repro.model.SlotPool` or a slot list); a one-shot
        iterator is materialized once up front.
    extractor / stop_at_first:
        As for :func:`~repro.core.aep.aep_scan`; shared by every job of
        the batch (one criterion per phase-1 pass, as in the paper).

    Returns
    -------
    list of (ScanResult or None)
        Aligned with ``jobs``.  Jobs of one scan class share the *same*
        result object; callers that mutate results must copy first.
    """
    job_list = list(jobs)
    results: List[Optional[ScanResult]] = [None] * len(job_list)
    if not job_list:
        return results
    if not isinstance(slots, (SlotPool, list, tuple)):
        slots = list(slots)
    requests = [request_of(job) for job in job_list]
    members_by_class: dict[tuple, list[int]] = {}
    for index, request in enumerate(requests):
        members_by_class.setdefault(scan_class_key(request), []).append(index)
    scan_counters["grouped_jobs"] += len(job_list)
    scan_counters["grouped_classes"] += len(members_by_class)
    scan_counters["grouped_shared"] += len(job_list) - len(members_by_class)

    pending = {
        key: requests[members[0]] for key, members in members_by_class.items()
    }
    class_results: dict[tuple, Optional[ScanResult]] = {}
    _scan_multi_budget(pending, slots, extractor, stop_at_first, class_results)
    _scan_fallback(pending, slots, extractor, stop_at_first, class_results)

    for key, members in members_by_class.items():
        result = class_results[key]
        for index in members:
            results[index] = result
    return results


def _scan_multi_budget(pending, slots, extractor, stop_at_first, out) -> None:
    """Serve the cheapest-subset classes, one sweep per budget group.

    Classes it can serve are moved from ``pending`` into ``out``; the
    rest stay pending for the per-class fallback.  Only extractors whose
    rule is the cheapest subset (``_Cheapest``) qualify — their candidate
    evolution is budget-independent, which is what lets one sweep answer
    several budgets (see :func:`repro.core.vectorized._run_cheapest_multi`).
    """
    rule = _strategy_of(extractor)
    if not isinstance(rule, _Cheapest):
        return
    resolved = _resolve_arrays(slots)
    if resolved is None:
        return
    arrays, slot_list = resolved

    sweep_groups: dict[tuple, list[tuple]] = {}
    for key in pending:
        # key = (plan key, node count, effective budget): same plan and
        # width, different budget -> one sweep.
        sweep_groups.setdefault((key[0], key[1]), []).append(key)
    for group_keys in sweep_groups.values():
        n = group_keys[0][1]
        plan = _plan_for(arrays, pending[group_keys[0]])
        if plan is None:
            return  # unsorted snapshot: every class must fall back
        budget_values = [_budget_of(pending[key]) for key in group_keys]
        order = sorted(range(len(group_keys)), key=budget_values.__getitem__)
        budgets = [budget_values[position] for position in order]
        outcomes = _run_cheapest_multi(
            plan, n, budgets, stop_at_first, rule.start_valued
        )
        scan_counters["vectorized"] += len(group_keys)
        if len(group_keys) > 1:  # the telemetry counts *shared* sweeps
            scan_counters["batch_sweeps"] += 1
            scan_counters["batch_sweep_classes"] += len(group_keys)
        for position, outcome in zip(order, outcomes):
            key = group_keys[position]
            out[key] = _materialize(plan, slot_list, outcome)
            del pending[key]


def _scan_fallback(pending, slots, extractor, stop_at_first, out) -> None:
    """Per-class scans for everything the shared sweep did not serve.

    Each class still pays exactly one :func:`~repro.core.aep.aep_scan`;
    classes sharing a ``(reservation_time, reference_performance)``
    shape share one :class:`~repro.core.candidates.LegFactory` so the
    generic loop computes per-node runtimes and costs once per shape,
    not once per class.  (The vector kernel ignores the factory — its
    plan cache on the snapshot plays the same role.)
    """
    factories: dict[tuple, LegFactory] = {}
    for key, request in pending.items():
        shape = leg_shape_key(request)
        factory = factories.get(shape)
        if factory is None:
            factory = LegFactory(request)
            factories[shape] = factory
        out[key] = aep_scan(
            request,
            slots,
            extractor,
            stop_at_first=stop_at_first,
            leg_factory=factory,
        )
    pending.clear()
