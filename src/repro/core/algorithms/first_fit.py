"""First-fit baseline (backtrack [10] / NorduGrid [11] style).

"Some existing algorithms assign a job to the first set of slots matching
the resource request without any optimization (the first fit type)."  The
baseline scans the ordered slot list and, as soon as the extended window
holds ``n`` candidates, returns the ``n`` longest-waiting ones — checking
the *resource* requirements only.  Unlike AMP it is blind to the economic
side of the request: the job budget is ignored, so the window it returns
may be unaffordable (callers can check ``window.total_cost``).  It exists
to quantify what AMP's budget awareness adds over a plain first fit.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aep import request_of
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.model.slotpool import SlotPool
from repro.model.window import Window, WindowSlot


class FirstFit(SlotSelectionAlgorithm):
    """First set of ``n`` matching slots; resource constraints only."""

    name = "FirstFit"

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        request = request_of(job)
        n = request.node_count
        deadline = request.deadline
        candidates: list[WindowSlot] = []
        for slot in pool:
            if not request.node_matches(slot.node):
                continue
            leg = WindowSlot.for_request(slot, request)
            window_start = slot.start
            candidates = [ws for ws in candidates if ws.fits_from(window_start, deadline)]
            if not leg.fits_from(window_start, deadline):
                continue
            candidates.append(leg)
            if len(candidates) >= n:
                return Window(start=window_start, slots=tuple(candidates[:n]))
        return None
