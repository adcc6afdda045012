"""MinFinish — the earliest-finish-time window (Section 2.2).

The finish time of a window anchored at scan position ``tStart`` is
``tStart + minRuntime``, where ``minRuntime`` is computed by the runtime-
minimizing procedure on the current extended window.  Selecting the
smallest such value across the scan yields the earliest completion over
the whole scheduling interval.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aep import aep_scan
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.extractors import (
    EarliestFinishExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
)
from repro.model.slotpool import SlotPool
from repro.model.window import Window


class MinFinish(SlotSelectionAlgorithm):
    """Earliest-finish window selection.

    Parameters
    ----------
    exact:
        ``False`` (default) backs the per-step runtime minimization with
        the paper's substitution heuristic; ``True`` with the exact sweep.
    """

    def __init__(self, exact: bool = False) -> None:
        self.exact = exact
        self.name = "MinFinish-exact" if exact else "MinFinish"
        runtime_extractor = (
            MinRuntimeExactExtractor() if exact else MinRuntimeSubstitutionExtractor()
        )
        self._extractor = EarliestFinishExtractor(runtime_extractor)

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        result = aep_scan(job, pool, self._extractor)
        return result.window if result is not None else None
