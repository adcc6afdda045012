"""MinIdle — minimum co-allocation waste (the "rough right edge" area).

An AEP criterion beyond the paper's evaluated five: for tightly coupled
parallel jobs, tasks that finish early block on the stragglers, so the
co-allocation wastes ``runtime - t`` node-time on every leg of duration
``t``.  MinIdle selects the window whose legs run as equally long as
possible under the budget.

Extraction: sort the alive candidates by task duration.  For a *fixed*
longest leg, the waste-minimizing companions are the ``n - 1`` longest
tasks not exceeding it — i.e. the candidates immediately below it in the
duration order.  Scanning all consecutive duration-windows of size ``n``
therefore covers every optimal composition; the budget filter makes it a
heuristic (a skipped expensive member could be replaced by a farther,
cheaper one), so the cheapest feasible subset is kept as a fallback —
guaranteeing MinIdle finds a window whenever any algorithm does.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.aep import aep_scan
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.extractors import Extraction, _budget_of, cheapest_subset
from repro.model.job import ResourceRequest
from repro.model.slotpool import SlotPool
from repro.model.window import Window, WindowSlot


def _idle_of(group: Sequence[WindowSlot]) -> float:
    longest = max(ws.required_time for ws in group)
    return sum(longest - ws.required_time for ws in group)


class BalancedEdgeExtractor:
    """Minimal-idle extraction via the consecutive duration sweep."""

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        n = request.node_count
        budget = _budget_of(request)
        if len(candidates) < n:
            return None
        by_duration = sorted(
            candidates, key=lambda ws: (ws.required_time, ws.cost)
        )
        best: Optional[Extraction] = None
        for offset in range(len(by_duration) - n + 1):
            group = by_duration[offset : offset + n]
            if sum(ws.cost for ws in group) > budget:
                continue
            idle = _idle_of(group)
            if best is None or idle < best.value - 1e-12:
                best = Extraction(value=idle, slots=tuple(group))
        if best is None:
            # Budget-feasibility fallback: the cheapest subset exists iff
            # any feasible window exists at this step.
            fallback = cheapest_subset(candidates, n, budget)
            if fallback is None:
                return None
            best = Extraction(value=_idle_of(fallback), slots=tuple(fallback))
        return best


class MinIdle(SlotSelectionAlgorithm):
    """Minimum co-allocation waste window selection."""

    name = "MinIdle"

    def __init__(self) -> None:
        self._extractor = BalancedEdgeExtractor()

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        result = aep_scan(job, pool, self._extractor)
        return result.window if result is not None else None

    def _batch_scan_spec(self):
        """Plain AEP scan: batch cycles through the grouped kernel."""
        return (self._extractor, False)
