"""Phase two of the batch scheduling scheme: combination selection.

During every cycle of job-batch scheduling two problems are solved
(Section 1): "1) selecting an alternative set of slots that meet the
requirements; 2) choosing a slot combination that would be the efficient or
optimal in terms of the whole job batch execution".  The slot-selection
algorithms of :mod:`repro.core` solve problem 1; this module solves
problem 2: pick exactly one alternative per job so that

* no two chosen windows claim overlapping time on the same node,
* an optional VO-level budget on the combined cost is respected,
* the sum of a criterion over the chosen windows is minimized.

The solver is a greedy pass in priority order, linear in the
alternatives it tests (:func:`greedy_combination`).  Jobs whose every
alternative conflicts with earlier choices are left unscheduled for the
cycle, as in the VO model where an unallocated job waits for the next
scheduling cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.criteria import Criterion
from repro.model.job import Job
from repro.model.slot import TIME_EPSILON
from repro.model.window import Window, left_sum


@dataclass(frozen=True)
class CombinationChoice:
    """The outcome of phase two for one batch."""

    assignments: dict[str, Window]  # job_id -> chosen window
    total_value: float
    unscheduled: tuple[str, ...] = ()

    @property
    def scheduled_count(self) -> int:
        """Number of jobs that received a window."""
        return len(self.assignments)

    def total_cost(self) -> float:
        """Combined cost of the chosen windows."""
        return left_sum(window.total_cost for window in self.assignments.values())

    def makespan(self) -> float:
        """Latest finish time among the chosen windows."""
        if not self.assignments:
            return 0.0
        return max(window.finish for window in self.assignments.values())


class ConflictIndex:
    """Chosen-window reservations as plain span lists per node.

    Phase 2 asks one question per candidate alternative: does it overlap
    any already-chosen window on a common node?  Per node, the index
    keeps a list of ``(start, (start + required_time) - TIME_EPSILON)``
    spans, one per chosen leg, and tests a candidate against each with
    two float comparisons.  A cycle books a handful of legs per node,
    so the per-node walk is short.

    Exactness: ``candidate.conflicts_with(chosen)`` declares a conflict
    on a common node iff ``cand.start < (chosen.start +
    chosen_leg.required_time) - TIME_EPSILON`` and ``chosen.start <
    (cand.start + cand_leg.required_time) - TIME_EPSILON``.  The index
    makes the same two comparisons on floats computed in the same
    operation order, and mirrors the node-reuse asymmetry: the
    *candidate* side keeps only the last leg per node (the ``mine``
    dict comprehension) while the *chosen* side keeps every pushed leg
    (the ``other.slots`` loop).  Verdicts are byte-identical to the
    pairwise loop (property-tested in
    ``tests/scheduling/test_combination.py``).
    """

    __slots__ = ("_spans",)

    def __init__(self) -> None:
        self._spans: dict[int, list[tuple[float, float]]] = {}

    def push(self, window: Window) -> None:
        """Add a chosen window's reservations to the index."""
        start = window.start
        for ws in window.slots:
            self._spans.setdefault(ws.slot.node.node_id, []).append(
                (start, (start + ws.required_time) - TIME_EPSILON)
            )

    def conflicts(self, window: Window) -> bool:
        """Whether ``window`` overlaps any indexed window on a common node."""
        start = window.start
        spans = self._spans
        # Last leg wins on a node reused within the window, mirroring the
        # span dict in Window.conflicts_with.
        cand_end_eps: dict[int, float] = {}
        for ws in window.slots:
            cand_end_eps[ws.slot.node.node_id] = (
                start + ws.required_time
            ) - TIME_EPSILON
        for node_id, end_eps in cand_end_eps.items():
            for chosen_start, chosen_end_eps in spans.get(node_id, ()):
                if start < chosen_end_eps and chosen_start < end_eps:
                    return True
        return False


def greedy_combination(
    jobs: Sequence[Job],
    alternatives: dict[str, Sequence[Window]],
    criterion: Criterion = Criterion.COST,
    vo_budget: Optional[float] = None,
) -> CombinationChoice:
    """Greedy phase-two selection in priority order.

    For each job (highest priority first) pick the alternative with the
    smallest criterion value that does not conflict with already chosen
    windows and fits the remaining VO budget: the scheme the
    metascheduler uses on-line.

    Phase one hands every job of one request class a copy of one list
    of the same :class:`Window` objects
    (:meth:`~repro.core.algorithms.base.SlotSelectionAlgorithm.find_alternatives_batch`).
    Such a list is ranked once, and each job resumes it where the last
    job holding it stopped.  Lists are matched by the identity of their
    windows, in order (``tuple(map(id, options))``), not by equality: a
    job must be given its own list's objects.  The memo keeps every
    ranked list alive, so no id is reused while the pass runs; it is
    only looked up, never iterated.

    *Exactness.*  A window is passed over for one of two reasons.
    Either ``total_cost > remaining + 1e-9``, and ``remaining`` only
    falls, because a chosen cost is ``>= 0`` (node prices are) and
    float ``-`` of a non-negative number does not raise it.  Or it
    conflicts with a chosen window, and the chosen set only grows.
    Either way a window passed over for one job is passed over for
    every later job, so a later job holding the same list starts where
    the last one stopped: at the *selected* window itself, not after
    it, since a window whose legs are all at most ``TIME_EPSILON`` long
    does not conflict with itself and may be assigned twice.  So each
    list is walked once per batch.  A selected window that would raise
    ``remaining`` or make it NaN (a negative or NaN cost, which only a
    hand-built window can have) clears the memo, and lists are walked
    afresh from there.
    """
    ordered = sorted(jobs, key=lambda job: -job.priority)
    chosen = ConflictIndex()
    assignments: dict[str, Window] = {}
    unscheduled: list[str] = []
    remaining_budget = float("inf") if vo_budget is None else vo_budget
    total_value = 0.0
    # Window ids in order -> [the list ranked by criterion, resume index].
    ranked_lists: dict[tuple[int, ...], list] = {}
    for job in ordered:
        options = alternatives.get(job.job_id, ())
        key = tuple(map(id, options))
        entry = ranked_lists.get(key)
        if entry is None:
            entry = [sorted(options, key=criterion.evaluate), 0]
            ranked_lists[key] = entry
        ranked = entry[0]
        for index in range(entry[1], len(ranked)):
            window = ranked[index]
            if window.total_cost > remaining_budget + 1e-9:
                continue
            if chosen.conflicts(window):
                continue
            break
        else:
            entry[1] = len(ranked)
            unscheduled.append(job.job_id)
            continue
        entry[1] = index
        chosen.push(window)
        assignments[job.job_id] = window
        left = remaining_budget - window.total_cost
        if not left <= remaining_budget:
            ranked_lists.clear()  # a negative or NaN cost
        remaining_budget = left
        total_value += criterion.evaluate(window)
    return CombinationChoice(
        assignments=assignments,
        total_value=total_value,
        unscheduled=tuple(unscheduled),
    )
