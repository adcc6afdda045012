"""Frozen original scan kernel — the equivalence baseline.

This module preserves, verbatim, the generic AEP scan and the two
extractors as they stood before any kernel work (the per-step bookkeeping
of :func:`repro.core.aep.aep_scan`, the rewritten extractor inner loops
and the vector replay in :mod:`repro.core.vectorized` all came later):

* :func:`reference_scan` — the original ``aep_scan``: per-slot
  list-comprehension pruning and a fresh :meth:`WindowSlot.for_request`
  per slot.  Its one edit since: pruning and insertion call
  :meth:`WindowSlot.fits_from` with the deadline (the package's one
  float test of "a leg fits from t"), which replaced the end test, the
  insert-time deadline test and the per-step deadline filter — a spec
  that spelled the test differently would disagree with every scan in
  ulp corners;
* :class:`ReferenceMinRuntimeSubstitutionExtractor` — the substitution
  heuristic with a full ``sorted()`` per extraction;
* :class:`ReferenceGreedyAdditiveExtractor` — the swap search calling
  ``self._key`` inside the O(n·m) loop.

It exists for two jobs only: the equivalence property tests
(``tests/core/test_scan_equivalence.py``), which assert window-for-window
identical selection, and the fast-scan ablation
(``benchmarks/test_ablation_fast_scan.py``), which times the production
kernel against these exact code paths.  Do not "optimize" this module —
its value is that it does not change.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

from repro.core.extractors import (
    VALUE_EPSILON,
    Extraction,
    ScanResult,
    WindowExtractor,
    _budget_of,
    cheapest_subset,
)
from repro.model.job import Job, ResourceRequest
from repro.model.slot import TIME_EPSILON
from repro.model.window import Window, WindowSlot, left_sum


def _request_of(job: Union[Job, ResourceRequest]) -> ResourceRequest:
    if isinstance(job, Job):
        return job.request
    return job


def reference_scan(
    job: Union[Job, ResourceRequest],
    slots: Iterable,
    extractor: WindowExtractor,
    *,
    stop_at_first: bool = False,
):
    """The original ``aep_scan``, byte-for-byte (see module docs)."""
    request = _request_of(job)
    n = request.node_count
    deadline = request.deadline

    candidates: list[WindowSlot] = []
    best: Optional[ScanResult] = None
    best_value = float("inf")
    steps = 0
    slots_scanned = 0
    candidate_peak = 0
    previous_start = None

    for slot in slots:
        slots_scanned += 1
        if previous_start is not None and slot.start < previous_start - TIME_EPSILON:
            raise ValueError(
                "reference_scan requires slots ordered by non-decreasing start time"
            )
        previous_start = slot.start
        if not request.node_matches(slot.node):
            continue
        leg = WindowSlot.for_request(slot, request)
        window_start = slot.start
        candidates = [ws for ws in candidates if ws.fits_from(window_start, deadline)]
        if not leg.fits_from(window_start, deadline):
            continue
        candidates.append(leg)
        candidate_peak = max(candidate_peak, len(candidates))
        if len(candidates) < n:
            continue
        steps += 1
        extraction = extractor.extract(window_start, candidates, request)
        if extraction is None:
            continue
        if extraction.value < best_value - VALUE_EPSILON:
            best_value = extraction.value
            best = ScanResult(
                window=Window(start=window_start, slots=extraction.slots),
                value=extraction.value,
                steps=steps,
            )
            if stop_at_first:
                break
    if best is not None:
        return ScanResult(
            window=best.window,
            value=best.value,
            steps=steps,
            slots_scanned=slots_scanned,
            candidate_peak=candidate_peak,
        )
    return None


class ReferenceMinRuntimeSubstitutionExtractor:
    """The substitution heuristic as it stood before the rewrite."""

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (frozen)."""
        n = request.node_count
        budget = _budget_of(request)
        ordered = sorted(candidates, key=lambda ws: (ws.cost, ws.required_time))
        if len(ordered) < n:
            return None
        result = ordered[:n]
        cost = left_sum(ws.cost for ws in result)
        if cost > budget:
            return None
        for short in ordered[n:]:
            longest_index = max(
                range(len(result)), key=lambda i: result[i].required_time
            )
            longest = result[longest_index]
            if (
                short.required_time < longest.required_time
                and cost - longest.cost + short.cost <= budget
            ):
                cost += short.cost - longest.cost
                result[longest_index] = short
        return Extraction(
            value=max(ws.required_time for ws in result), slots=tuple(result)
        )


class ReferenceGreedyAdditiveExtractor:
    """The additive swap search as it stood before the rewrite."""

    def __init__(
        self,
        key: Callable[[WindowSlot], float] = lambda ws: ws.required_time,
        max_rounds: int = 64,
    ):
        self._key = key
        self._max_rounds = max(1, max_rounds)

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (frozen)."""
        n = request.node_count
        budget = _budget_of(request)
        chosen = cheapest_subset(candidates, n, budget)
        if chosen is None:
            return None
        current = list(chosen)
        in_window = set(map(id, current))
        outside = [ws for ws in candidates if id(ws) not in in_window]
        cost = left_sum(ws.cost for ws in current)
        for _ in range(self._max_rounds):
            best_gain = 0.0
            best_swap: Optional[tuple[int, int]] = None
            for out_index, out_ws in enumerate(current):
                for in_index, in_ws in enumerate(outside):
                    if cost - out_ws.cost + in_ws.cost > budget:
                        continue
                    gain = self._key(out_ws) - self._key(in_ws)
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_swap = (out_index, in_index)
            if best_swap is None:
                break
            out_index, in_index = best_swap
            cost += outside[in_index].cost - current[out_index].cost
            current[out_index], outside[in_index] = (
                outside[in_index],
                current[out_index],
            )
        return Extraction(
            value=left_sum(self._key(ws) for ws in current), slots=tuple(current)
        )
