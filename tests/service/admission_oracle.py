"""The admission bound's slow twin — the oracle ``cheapest_feasible_cost``
is held to.

:func:`cheapest_feasible_cost_reference` is the per-slot object loop the
columnar, memoized :func:`repro.service.admission.cheapest_feasible_cost`
replaced: per matching node, the cheapest cost of the job's task on any
slot at least as long as the task (the length test ``length >= runtime
- eps``, which the admission bound keeps), summed over the ``n`` cheapest
nodes.  The property suites assert the fast path returns the *same*
float (or the same ``None``) for arbitrary pools and request shapes.  Do
not "optimize" this module — its value is that it stays obviously right.
"""

from __future__ import annotations

from typing import Optional

from repro.model import ResourceRequest, SlotPool
from repro.model.slot import TIME_EPSILON
from repro.model.window import left_sum


def cheapest_feasible_cost_reference(
    request: ResourceRequest, pool: SlotPool
) -> Optional[float]:
    """Per-slot object-loop twin of ``cheapest_feasible_cost``."""
    best_by_node: dict[int, float] = {}
    for slot in pool:
        node = slot.node
        if not request.node_matches(node):
            continue
        duration = request.task_runtime_on(node)
        if slot.length < duration - TIME_EPSILON:
            continue
        cost = node.usage_cost(duration)
        known = best_by_node.get(node.node_id)
        if known is None or cost < known:
            best_by_node[node.node_id] = cost
    if len(best_by_node) < request.node_count:
        return None
    return left_sum(sorted(best_by_node.values())[: request.node_count])
