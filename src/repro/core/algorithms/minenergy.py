"""MinEnergy — minimum total energy consumption window.

Section 2.1 names "a minimum energy consumption" as an example criterion
for the AEP scheme without evaluating it; we provide it as a full
implementation to demonstrate that AEP extends to any additive slot
characteristic.  The per-slot energy is ``node.power() * required_time``
(see :meth:`repro.model.CpuNode.power`), which is U-shaped in node
performance: very slow nodes run too long, very fast nodes draw too much
power, so the criterion genuinely differs from both MinCost and
MinProcTime.
"""

from __future__ import annotations

from typing import Optional

from repro.core.aep import aep_scan
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.extractors import (
    ExactAdditiveExtractor,
    GreedyAdditiveExtractor,
    energy_key,
)
from repro.model.slotpool import SlotPool
from repro.model.window import Window


class MinEnergy(SlotSelectionAlgorithm):
    """Minimum-energy window selection (additive AEP criterion).

    Parameters
    ----------
    exact:
        ``False`` (default) uses the greedy-substitution extractor;
        ``True`` uses branch-and-bound (small instances only).
    """

    def __init__(self, exact: bool = False) -> None:
        self.exact = exact
        self.name = "MinEnergy-exact" if exact else "MinEnergy"
        self._extractor = (
            ExactAdditiveExtractor(energy_key)
            if exact
            else GreedyAdditiveExtractor(energy_key)
        )

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """Best window for ``job`` by this algorithm's criterion (see base class)."""
        result = aep_scan(job, pool, self._extractor)
        return result.window if result is not None else None
