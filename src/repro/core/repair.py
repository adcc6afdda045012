"""Fixed-start replacement search for window repair.

When a local job preempts a leg of a *committed* co-allocation window,
the cheapest recovery keeps the window's synchronous start time and swaps
only the revoked legs for substitutes — every surviving reservation, and
the job's position in the schedule, stay untouched.  The search here is
the AEP scan degenerated to a single step: the window start is no longer
a free variable, so the extended window is built once at the fixed start
and its cheapest eligible candidates are the answer.
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from repro.core.candidates import LegFactory
from repro.core.extractors import cheapest_subset
from repro.model.job import ResourceRequest
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import SlotPool
from repro.model.window import WindowSlot, budget_limit


def find_fixed_start_replacements(
    pool: SlotPool,
    request: ResourceRequest,
    start: float,
    count: int,
    exclude_nodes: AbstractSet[int],
    budget: float,
) -> Optional[list[WindowSlot]]:
    """The ``count`` cheapest substitute legs able to start at ``start``.

    Parameters
    ----------
    pool:
        The *current* free-slot pool (not a snapshot: repair runs under
        the broker lock, between cycles).
    request:
        The job's resource request; fixes per-node task runtimes, the
        hardware filter and the deadline.
    start:
        The committed window's start time.  Every replacement must host
        ``[start, start + required_time)`` — repairs never move a window.
    count:
        Number of revoked legs to replace.
    exclude_nodes:
        Node ids already carrying a leg of this window (surviving *and*
        revoked): the repaired window must keep its nodes distinct, and
        a just-revoked node has no free slot over the span anyway.
    budget:
        Remaining budget — the request's budget minus the surviving
        legs' cost.  The replacements' cost sum must fit it under the
        search's rule (:func:`~repro.model.window.budget_limit`).

    Returns the chosen legs in cost order, or ``None`` when fewer than
    ``count`` eligible candidates exist or the cheapest ``count`` exceed
    the budget (cost order makes that the strongest certificate of
    infeasibility).  Per-node slots are disjoint, so at most one slot per
    node can contain the fixed span — node-distinctness of the result is
    structural, not filtered.
    """
    if count <= 0:
        return []
    factory = LegFactory(request)
    deadline = request.deadline
    candidates: list[WindowSlot] = []
    for slot in pool:
        if slot.start > start + TIME_EPSILON:
            break  # start-ordered: no later slot can cover the fixed start
        if slot.node.node_id in exclude_nodes:
            continue
        if not request.node_matches(slot.node):
            continue
        leg = factory.leg(slot)
        if not leg.fits_from(start, deadline):
            continue
        candidates.append(leg)
    return cheapest_subset(candidates, count, budget_limit(budget))
