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
from repro.core.algorithms.base import Alternative, JobLike, SlotSelectionAlgorithm
from repro.core.candidates import LegFactory
from repro.core.criteria import Criterion, best_window
from repro.core.vectorized import UNSUPPORTED, vectorized_alternatives
from repro.model.slotpool import SlotPool
from repro.model.window import Window


def check_cut_mode(cut_mode: str) -> None:
    """Refuse a cutting policy other than ``split`` and ``consume``."""
    if cut_mode not in ("split", "consume"):
        raise ValueError(f"unknown cut mode {cut_mode!r}")


def rerun_alternatives(
    amp: AMP,
    job: JobLike,
    pool: SlotPool,
    cap: Optional[int] = None,
    cut_mode: str = "consume",
) -> list[Window]:
    """The CSA procedure as the paper states it: run AMP, cut, repeat.

    AMP selects the earliest window on a working copy of ``pool``, the
    window's slots are cut out of the copy, and AMP runs again from the
    start of the list — until no window is left or ``cap`` are found.
    ``consume`` cutting removes each used slot (:meth:`SlotPool.remove`),
    ``split`` cutting puts back its remainders (:meth:`SlotPool.commit_window`).
    This is what Tables 1-2 time as "CSA", the only path for ``split``
    cutting and for input the sweep kernel does not take, and the
    reference every sweep is tested against.
    """
    check_cut_mode(cut_mode)
    if cut_mode == "split" and not isinstance(pool, SlotPool):
        raise TypeError(
            f"split cutting needs a SlotPool, got {type(pool).__name__}"
        )
    working = pool.copy()
    # One leg cache across all AMP re-runs: runtimes/costs depend only
    # on (node, request), and cutting never changes either.
    legs = LegFactory(request_of(job))
    alternatives: list[Window] = []
    while cap is None or len(alternatives) < cap:
        window = amp.select(job, working, leg_factory=legs)
        if window is None:
            break
        alternatives.append(window)
        if cut_mode == "split":
            working.commit_window(window)
        else:
            for ws in window.slots:
                working.remove(ws.slot)
    return alternatives


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
        check_cut_mode(cut_mode)
        self.criterion = criterion
        self.max_alternatives = max_alternatives
        self.cut_mode = cut_mode
        self.name = f"CSA[{criterion.value}]"
        self._amp = AMP(policy=amp_policy)

    def find_alternatives(
        self, job: JobLike, pool: SlotPool, limit: Optional[int] = None
    ) -> list[Window]:
        """All slot-disjoint alternatives found by repeated AMP + cutting:
        :meth:`alternatives`, every one materialized."""
        return [found.as_window() for found in self.alternatives(job, pool, limit)]

    def alternatives(
        self, job: JobLike, pool: SlotPool, limit: Optional[int] = None
    ) -> list[Alternative]:
        """All slot-disjoint alternatives, as phase two reads them.

        The caller's pool is never mutated.  With ``consume`` cutting,
        cutting only ever removes slots, so one sweep over the pool's
        snapshot yields every re-run's window as a row of its scan plan
        (:func:`~repro.core.vectorized.vectorized_alternatives`: the
        cheapest policy just keeps sweeping, the eviction policy resumes
        from a checkpoint); ``split`` cutting and input the kernel does
        not take run the procedure itself (:func:`rerun_alternatives`),
        which returns windows.  Both produce the same windows.

        ``pool`` may also be a :class:`~repro.model.slotarrays.SlotArrays`
        snapshot whose rows are in start order, as the co-allocator's
        merged shard snapshot is: under ``consume`` cutting the sweep
        always takes it.
        """
        cap = limit if limit is not None else self.max_alternatives
        if self.cut_mode == "consume":
            found = vectorized_alternatives(
                request_of(job), pool, cap, self._amp.policy
            )
            if found is not UNSUPPORTED:
                return found
        return rerun_alternatives(self._amp, job, pool, cap, self.cut_mode)

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
