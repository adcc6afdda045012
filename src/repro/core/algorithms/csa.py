"""CSA — "Common Stats, AMP": the multi-alternative search scheme.

CSA is the general alternative-search scheme of the authors' earlier works
[15-17]: run AMP to find the earliest feasible window, *cut* its slots out
of the pool, and repeat until no further window exists.  The result is a
set of alternatives "disjointed by the slots" for one job; optimization by
any criterion then happens at the *selection* step, by picking the extreme
alternative from the set.

CSA is the paper's main comparator: it finds on average 57 alternatives per
job in the base environment but pays for them with a working time orders of
magnitude above the single-window AEP implementations (Tables 1-2).
"""

from __future__ import annotations

from typing import Optional

from repro.core.aep import request_of
from repro.core.algorithms.amp import AMP
from repro.core.algorithms.base import JobLike, SlotSelectionAlgorithm
from repro.core.candidates import LegFactory
from repro.core.criteria import Criterion, best_window
from repro.core.vectorized import UNSUPPORTED, vectorized_alternatives
from repro.model.slotpool import SlotPool
from repro.model.window import Window


class CSA(SlotSelectionAlgorithm):
    """Multi-alternative search via repeated AMP runs with slot cutting.

    Parameters
    ----------
    criterion:
        The selection criterion applied by :meth:`select` to the collected
        alternatives (start time by default, matching plain AMP behaviour).
    max_alternatives:
        Optional cap on the number of alternatives collected.
    cut_mode:
        Slot-cutting policy between consecutive AMP runs:
        ``"consume"`` (default) drops every used slot entirely — the
        coarse policy whose alternative counts match the paper's CSA
        statistics; ``"split"`` re-inserts the unused remainders of each
        slot, which yields several times more (denser-packed)
        alternatives.  See the cutting-policy ablation in DESIGN.md.
    amp_policy:
        Window-composition policy of the underlying AMP runs (see
        :class:`~repro.core.algorithms.amp.AMP`).
    """

    def __init__(
        self,
        criterion: Criterion = Criterion.START_TIME,
        max_alternatives: Optional[int] = None,
        cut_mode: str = "consume",
        amp_policy: str = "first",
    ) -> None:
        if max_alternatives is not None and max_alternatives < 1:
            raise ValueError(f"max_alternatives must be >= 1, got {max_alternatives}")
        if cut_mode not in ("split", "consume"):
            raise ValueError(f"unknown cut mode {cut_mode!r}")
        self.criterion = criterion
        self.max_alternatives = max_alternatives
        self.cut_mode = cut_mode
        self.name = f"CSA[{criterion.value}]"
        self._amp = AMP(policy=amp_policy)

    def find_alternatives(
        self, job: JobLike, pool: SlotPool, limit: Optional[int] = None
    ) -> list[Window]:
        """All slot-disjoint alternatives found by repeated AMP + cutting.

        The caller's pool is never mutated.  With the cheapest policy and
        ``consume`` cutting, cutting only ever removes slots, so one
        continuing sweep over the pool's snapshot yields every re-run's
        window (:func:`~repro.core.vectorized.vectorized_alternatives`);
        otherwise — first-policy AMP, ``split`` cutting, input the kernel
        does not take — AMP re-runs on a working copy that is cut between
        runs.  Both produce the same windows.
        """
        cap = limit if limit is not None else self.max_alternatives
        request = request_of(job)
        if self._amp.policy == "cheapest" and self.cut_mode == "consume":
            found = vectorized_alternatives(request, pool, cap)
            if found is not UNSUPPORTED:
                return found
        working = pool.copy()
        # One leg cache across all AMP re-runs: runtimes/costs depend only
        # on (node, request), and cutting never changes either.
        legs = LegFactory(request)
        alternatives: list[Window] = []
        while cap is None or len(alternatives) < cap:
            window = self._amp.select(job, working, leg_factory=legs)
            if window is None:
                break
            alternatives.append(window)
            working.cut_window(window, mode=self.cut_mode)
        return alternatives

    def select(self, job: JobLike, pool: SlotPool) -> Optional[Window]:
        """The best alternative by ``self.criterion`` among all found."""
        return self.select_by(job, pool, self.criterion)

    def select_by(
        self, job: JobLike, pool: SlotPool, criterion: Criterion
    ) -> Optional[Window]:
        """One-off selection by an explicit criterion."""
        alternatives = self.find_alternatives(job, pool)
        if not alternatives:
            return None
        return best_window(alternatives, criterion)
