"""MinCost — the minimum total allocation cost window (Section 2.2).

"If at each step of the algorithm a window with the minimum sum cost is
selected, at the end the window with the best value of the criterion crW
will be guaranteed to have overall minimum total allocation cost at the
given scheduling interval."  Selecting the ``n`` cheapest candidates is
exactly optimal for this additive objective, so MinCost is an *exact*
member of the AEP family.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aep import aep_scan
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.extractors import MinTotalCostExtractor
from repro.model.slotpool import SlotPool
from repro.model.window import Window


class MinCost(SlotSelectionAlgorithm):
    """Minimum-total-cost window selection over the scheduling interval."""

    name = "MinCost"

    def __init__(self) -> None:
        self._extractor = MinTotalCostExtractor()

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        result = aep_scan(job, pool, self._extractor)
        return result.window if result is not None else None
