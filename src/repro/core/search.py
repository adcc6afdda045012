"""High-level search facade: one entry point for every criterion.

``find_window(job, pool, criterion)`` dispatches to the right algorithm /
extractor combination, including the *maximizing* direction VO
administrators need ("VO administrators in their turn are interested in
finding extreme alternatives characteristics values (e.g., total cost,
total execution time) to form more flexible ... combination of
alternatives", Section 2.1).  Minimization covers every criterion;
maximization is provided where it is well-defined under a budget — the
additive criteria (cost, processor time, energy) and the start time
(latest feasible start).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.aep import aep_scan
from repro.core.algorithms.amp import AMP
from repro.core.algorithms.base import JobLike
from repro.core.algorithms.mincost import MinCost
from repro.core.algorithms.minenergy import MinEnergy
from repro.core.algorithms.minfinish import MinFinish
from repro.core.algorithms.minproctime import MinProcTime
from repro.core.algorithms.minruntime import MinRunTime
from repro.core.criteria import Criterion
from repro.core.extractors import EarliestStartExtractor, Extraction, GreedyAdditiveExtractor
from repro.model.slotpool import SlotPool
from repro.model.window import Window

#: Additive per-slot characteristics, for the maximizing direction.
_ADDITIVE_KEYS = {
    Criterion.COST: lambda ws: ws.cost,
    Criterion.PROCESSOR_TIME: lambda ws: ws.required_time,
    Criterion.ENERGY: lambda ws: ws.energy(),
}


class _LatestStartExtractor(EarliestStartExtractor):
    """Feasibility test valued by the *negated* start time."""

    def extract(self, window_start, candidates, request) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        extraction = super().extract(window_start, candidates, request)
        if extraction is None:
            return None
        return Extraction(value=-window_start, slots=extraction.slots)


def find_window(
    job: JobLike,
    pool: SlotPool,
    criterion: Criterion,
    *,
    maximize: bool = False,
    exact: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Optional[Window]:
    """The extreme window for ``criterion`` on ``pool``.

    Parameters
    ----------
    job:
        Job or bare resource request.
    pool:
        Slot pool (or any start-ordered slot iterable wrapped in one).
    criterion:
        The window characteristic to optimize.
    maximize:
        Seek the maximal value instead of the minimal one.  Supported for
        cost, processor time, energy and start time; raises
        ``NotImplementedError`` for runtime/finish (a "slowest window" is
        not a meaningful VO query under a budget cap).
    exact:
        Use the exact extraction variants where the default is a heuristic
        (runtime, finish, processor time, energy).
    rng:
        Randomness source for the simplified MinProcTime (ignored when
        ``exact`` selects the branch-and-bound variant, which draws nothing).
    """
    if not maximize:
        if criterion is Criterion.START_TIME:
            return AMP(policy="cheapest" if exact else "first").select(job, pool)
        if criterion is Criterion.COST:
            return MinCost().select(job, pool)
        if criterion is Criterion.RUNTIME:
            return MinRunTime(exact=exact).select(job, pool)
        if criterion is Criterion.FINISH_TIME:
            return MinFinish(exact=exact).select(job, pool)
        if criterion is Criterion.PROCESSOR_TIME:
            if exact:
                return MinProcTime(simplified=False, exact=True).select(job, pool)
            return MinProcTime(simplified=True, rng=rng).select(job, pool)
        if criterion is Criterion.ENERGY:
            return MinEnergy(exact=exact).select(job, pool)
        if criterion is Criterion.IDLE_TIME:
            from repro.core.algorithms.minidle import MinIdle

            return MinIdle().select(job, pool)
        raise ValueError(f"unhandled criterion {criterion!r}")  # pragma: no cover

    if criterion is Criterion.START_TIME:
        result = aep_scan(job, pool, _LatestStartExtractor())
        return result.window if result is not None else None
    key = _ADDITIVE_KEYS.get(criterion)
    if key is None:
        raise NotImplementedError(
            f"maximization is not defined for criterion {criterion.value!r}"
        )
    extractor = GreedyAdditiveExtractor(key=lambda ws: -key(ws))
    result = aep_scan(job, pool, extractor)
    return result.window if result is not None else None
