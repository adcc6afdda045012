"""AMP — Algorithm based on Maximal job Price: the earliest-start window.

AMP is the slot-selection scheme of the authors' earlier works [15-17]:
scan the ordered slot list and return the first window of ``n`` parallel
slots whose total cost does not exceed the job budget ``S`` ("finding a set
of the first n parallel slots the total cost of which does not exceed the
budget limit S").  Within the AEP framework this is start-time
minimization: "if at some step i of the algorithm the suitable window can
be formed, then the windows formed at the further steps will be guaranteed
to have the start time that is not earlier" — so the scan stops at the
first feasible window.

Two window-composition policies:

* ``"first"`` (default, paper-faithful) — the forming window consists of
  the longest-waiting alive slots in scan order; whenever the first ``n``
  of them exceed the budget, the *most expensive* slot of the forming
  window is evicted (that is the "maximal job price" rule: slots priced
  beyond the job's means are discarded) and the next-waiting slot takes
  its place.  The accepted window therefore costs just under the budget on
  average — which is exactly why the paper's Fig. 4 shows AMP's cost near
  the user limit.
* ``"cheapest"`` — take the ``n`` cheapest alive candidates at each step.
  Feasibility of the cheapest subset is equivalent to feasibility of any
  subset, so this policy provably returns the earliest possible start
  time; it is kept as the optimal ablation variant.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aep import aep_scan, request_of
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.candidates import LegFactory
from repro.core.extractors import EarliestStartExtractor, _budget_of
from repro.model.slotpool import SlotPool
from repro.model.window import Window, WindowSlot, left_sum


class AMP(SlotSelectionAlgorithm):
    """Earliest-start window selection (the AMP procedure).

    Parameters
    ----------
    policy:
        ``"first"`` (default) — scan-order window with most-expensive-slot
        eviction, the paper-faithful behaviour; ``"cheapest"`` — the
        ``n`` cheapest alive candidates, which guarantees the earliest
        possible start time.
    """

    def __init__(self, policy: str = "first") -> None:
        if policy not in ("first", "cheapest"):
            raise ValueError(f"unknown AMP policy {policy!r}")
        self.policy = policy
        self.name = "AMP" if policy == "first" else "AMP-cheapest"
        self._extractor = EarliestStartExtractor()

    def select(
        self,
        job: JobLike,
        pool: SlotPool,
        *,
        leg_factory: Optional[LegFactory] = None,
    ) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class).

        ``leg_factory`` optionally shares a per-(node, request) leg cache
        across repeated scans of the same request (CSA's AMP re-runs).
        """
        if self.policy == "cheapest":
            result = aep_scan(
                job, pool, self._extractor, stop_at_first=True, leg_factory=leg_factory
            )
            return result.window if result is not None else None
        return self._select_first_policy(job, pool, leg_factory=leg_factory)

    def _select_first_policy(
        self,
        job: JobLike,
        pool: SlotPool,
        *,
        leg_factory: Optional[LegFactory] = None,
    ) -> Optional[Window]:
        """The eviction scan of the paper-faithful AMP (see module docs)."""
        request = request_of(job)
        n = request.node_count
        budget = _budget_of(request)
        deadline = request.deadline
        legs = leg_factory if leg_factory is not None else LegFactory(request)
        candidates: list[WindowSlot] = []
        for slot in pool:
            if not request.node_matches(slot.node):
                continue
            leg = legs.leg(slot)
            window_start = slot.start
            # A waiting leg leaves once it no longer fits its slot from
            # here, or could no longer finish by the deadline from here.
            candidates = [ws for ws in candidates if ws.fits_from(window_start, deadline)]
            if not leg.fits_from(window_start, deadline):
                continue
            candidates.append(leg)
            # Evict over-priced slots from the forming window until the
            # first n alive slots are affordable (or too few remain).
            while len(candidates) >= n:
                forming = candidates[:n]
                if left_sum(ws.cost for ws in forming) <= budget:
                    return Window(start=window_start, slots=tuple(forming))
                most_expensive = max(range(n), key=lambda i: forming[i].cost)
                del candidates[most_expensive]
        return None
