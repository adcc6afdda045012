"""Exhaustive-search reference optimum.

The related work the paper positions itself against includes exhaustive
and integer-programming co-allocation schemes [2, 12, 13] whose solution
quality is optimal but whose complexity rules out on-line use.  This module
provides that reference point: enumerate every candidate window start (the
distinct start times of the ordered slot list) and, at each, every feasible
``n``-subset of the alive candidates, keeping the global optimum of the
requested criterion.

Runtime is combinatorial — use it on small instances only.  The test suite
relies on it to certify the optimality (or measure the sub-optimality) of
the linear-complexity AEP implementations.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from repro.core.aep import request_of
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.criteria import Criterion
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import SlotPool
from repro.model.window import COST_EPSILON, Window, WindowSlot

#: Safety valve: refuse instances whose subset space is plainly too large.
MAX_CANDIDATES = 64


class Exhaustive(SlotSelectionAlgorithm):
    """Globally optimal window by brute force (small instances only)."""

    def __init__(self, criterion: Criterion = Criterion.COST) -> None:
        self.criterion = criterion
        self.name = f"Exhaustive[{criterion.value}]"

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        request = request_of(job)
        n = request.node_count
        budget = request.effective_budget
        if budget != float("inf"):
            budget += COST_EPSILON * (1.0 + abs(budget))
        slots = pool.ordered()
        if len(slots) > MAX_CANDIDATES:
            raise ValueError(
                f"Exhaustive search limited to {MAX_CANDIDATES} slots, got {len(slots)}"
            )
        legs = [
            WindowSlot.for_request(slot, request)
            for slot in slots
            if request.node_matches(slot.node)
        ]
        best: Optional[Window] = None
        best_value = float("inf")
        for anchor in legs:
            window_start = anchor.slot.start
            alive = [
                ws
                for ws in legs
                if ws.slot.start <= window_start + TIME_EPSILON
                and ws.fits_from(window_start, request.deadline)
            ]
            if len(alive) < n:
                continue
            for subset in combinations(alive, n):
                if sum(ws.cost for ws in subset) > budget:
                    continue
                window = Window(start=window_start, slots=tuple(subset))
                value = self.criterion.evaluate(window)
                if value < best_value - 1e-12:
                    best_value = value
                    best = window
        return best
