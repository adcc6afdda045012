"""MinRunTime — the minimum execution-runtime window (Section 2.2).

The window runtime equals the length of its longest reservation (the task
on the slowest node), so minimizing it under the budget is a bottleneck
selection problem.  The paper solves it with a substitution heuristic —
repeatedly swap the longest slot of the forming window for the cheapest
remaining shorter one while the budget holds.  We expose that heuristic as
the default (paper-faithful) mode and an exact prefix-sweep mode
(``exact=True``) for the ablation study of DESIGN.md.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aep import aep_scan
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.extractors import (
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
)
from repro.model.slotpool import SlotPool
from repro.model.window import Window


class MinRunTime(SlotSelectionAlgorithm):
    """Minimum-runtime window selection.

    Parameters
    ----------
    exact:
        ``False`` (default) reproduces the paper's substitution procedure;
        ``True`` uses the exact prefix sweep instead.
    """

    def __init__(self, exact: bool = False) -> None:
        self.exact = exact
        self.name = "MinRunTime-exact" if exact else "MinRunTime"
        self._extractor = (
            MinRuntimeExactExtractor() if exact else MinRuntimeSubstitutionExtractor()
        )

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        result = aep_scan(job, pool, self._extractor)
        return result.window if result is not None else None
