"""Phase two's slow twins — the oracles :func:`greedy_combination` is held to.

* :func:`conflicts_with_any` — the pairwise :meth:`Window.conflicts_with`
  loop, the specification of :class:`ConflictIndex`;
* :func:`reference_greedy` — the greedy pass as it stood before the
  resume: every job sorts its own list and tests every window, against
  the pairwise predicate;
* :func:`optimal_combination` — the exact branch-and-bound
  (lexicographic: most jobs scheduled, then the smallest total
  criterion), on small batches.

None of them shares code with :mod:`repro.scheduling.combination`
beyond :class:`CombinationChoice`.  Do not "optimize" this module — its
value is that it stays obviously right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.criteria import Criterion
from repro.model.errors import SchedulingError
from repro.model.job import Job
from repro.model.window import Window, budget_limit
from repro.scheduling.combination import CombinationChoice


def conflicts_with_any(window: Window, chosen: Sequence[Window]) -> bool:
    """Whether ``window`` overlaps any of ``chosen`` on a common node."""
    return any(window.conflicts_with(other) for other in chosen)


def reference_greedy(
    jobs: Sequence[Job],
    alternatives: dict[str, Sequence[Window]],
    criterion: Criterion = Criterion.COST,
    vo_budget: Optional[float] = None,
) -> CombinationChoice:
    """Greedy phase two in priority order, one sort and one full walk
    per job: the cheapest alternative that conflicts with no chosen
    window and fits the remaining VO budget."""
    ordered = sorted(jobs, key=lambda job: -job.priority)
    chosen: list[Window] = []
    assignments: dict[str, Window] = {}
    unscheduled: list[str] = []
    remaining_budget = float("inf") if vo_budget is None else vo_budget
    total_value = 0.0
    for job in ordered:
        ranked = sorted(alternatives.get(job.job_id, ()), key=criterion.evaluate)
        selected: Optional[Window] = None
        for window in ranked:
            if window.total_cost > budget_limit(remaining_budget):
                continue
            if conflicts_with_any(window, chosen):
                continue
            selected = window
            break
        if selected is None:
            unscheduled.append(job.job_id)
            continue
        chosen.append(selected)
        assignments[job.job_id] = selected
        remaining_budget -= selected.total_cost
        total_value += criterion.evaluate(selected)
    return CombinationChoice(
        assignments=assignments,
        total_value=total_value,
        unscheduled=tuple(unscheduled),
    )


@dataclass
class _SearchState:
    best_value: float = float("inf")
    best_scheduled: int = -1
    best_assignments: dict[str, Window] = field(default_factory=dict)


def optimal_combination(
    jobs: Sequence[Job],
    alternatives: dict[str, Sequence[Window]],
    criterion: Criterion = Criterion.COST,
    vo_budget: Optional[float] = None,
    max_nodes_expanded: int = 200_000,
) -> CombinationChoice:
    """Exact phase-two selection by branch and bound.

    Maximizes the number of scheduled jobs first, then minimizes the total
    criterion value.  Exponential in the worst case; ``max_nodes_expanded``
    bounds the search and raises :class:`SchedulingError` when exceeded.
    """
    ordered = sorted(jobs, key=lambda job: -job.priority)
    state = _SearchState()
    budget = float("inf") if vo_budget is None else vo_budget
    expanded = 0

    options_by_job: list[tuple[Job, list[Window]]] = [
        (job, sorted(alternatives.get(job.job_id, ()), key=criterion.evaluate))
        for job in ordered
    ]

    def visit(
        index: int,
        chosen: list[Window],
        assignments: dict[str, Window],
        value: float,
        cost: float,
    ) -> None:
        """Depth-first branch-and-bound recursion."""
        nonlocal expanded
        expanded += 1
        if expanded > max_nodes_expanded:
            raise SchedulingError(
                f"optimal_combination exceeded {max_nodes_expanded} search nodes"
            )
        if index == len(options_by_job):
            scheduled = len(assignments)
            if scheduled > state.best_scheduled or (
                scheduled == state.best_scheduled and value < state.best_value
            ):
                state.best_scheduled = scheduled
                state.best_value = value
                state.best_assignments = dict(assignments)
            return
        # Bound: even scheduling every remaining job cannot beat the best.
        remaining = len(options_by_job) - index
        if len(assignments) + remaining < state.best_scheduled:
            return
        job, options = options_by_job[index]
        for window in options:
            if cost + window.total_cost > budget_limit(budget):
                continue
            if conflicts_with_any(window, chosen):
                continue
            chosen.append(window)
            assignments[job.job_id] = window
            visit(
                index + 1,
                chosen,
                assignments,
                value + criterion.evaluate(window),
                cost + window.total_cost,
            )
            chosen.pop()
            del assignments[job.job_id]
        # Also consider leaving the job unscheduled.
        visit(index + 1, chosen, assignments, value, cost)

    visit(0, [], {}, 0.0, 0.0)
    scheduled_ids = set(state.best_assignments)
    unscheduled = tuple(job.job_id for job in ordered if job.job_id not in scheduled_ids)
    total_value = state.best_value if state.best_scheduled > 0 else 0.0
    return CombinationChoice(
        assignments=state.best_assignments,
        total_value=total_value,
        unscheduled=unscheduled,
    )
