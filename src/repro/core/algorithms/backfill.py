"""Rigid backfill baseline (Moab-style slot window search).

Section 1 discusses the backfilling algorithm of the Moab scheduler: it
finds the earliest window but "during a slot window search does not take
into account any additive constraints such as ... the maximum allowed total
allocation cost" and "does not support environments with non-dedicated
resources" — in particular it treats the requested reservation time as a
*rigid* duration, identical on every node, instead of scaling it by node
performance.

This baseline reproduces those limitations deliberately:

* every task occupies exactly ``reservation_time`` time units regardless of
  the node's speed (rigid reservations);
* the budget and the per-node price cap are ignored;
* the earliest window wins (no criterion search).

It exists to quantify, in the benchmarks, what the AEP family's awareness
of heterogeneity and cost buys over a classic backfill window search.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aep import request_of
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.model.slotpool import SlotPool
from repro.model.window import Window, WindowSlot


class RigidBackfill(SlotSelectionAlgorithm):
    """Earliest rigid-duration window, cost-blind (backfill comparator)."""

    name = "RigidBackfill"

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        request = request_of(job)
        n = request.node_count
        duration = request.reservation_time  # rigid: no performance scaling
        deadline = request.deadline
        candidates: list[WindowSlot] = []
        for slot in pool:
            if not request.node_matches(slot.node):
                continue
            window_start = slot.start
            candidates = [ws for ws in candidates if ws.fits_from(window_start, deadline)]
            leg = WindowSlot(
                slot=slot, required_time=duration, cost=slot.node.usage_cost(duration)
            )
            if not leg.fits_from(window_start, deadline):
                continue
            candidates.append(leg)
            if len(candidates) >= n:
                return Window(start=window_start, slots=tuple(candidates[:n]))
        return None
