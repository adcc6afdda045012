"""Window-leg construction shared by the scans of one request shape.

:class:`LegFactory` computes the per-(node, request) task runtime and
cost once and stamps them onto every slot of that node, replacing a
:meth:`WindowSlot.for_request` recomputation per slot (and per AMP re-run
inside CSA).
"""

from __future__ import annotations

from repro.model.job import ResourceRequest
from repro.model.slot import Slot
from repro.model.window import WindowSlot


class LegFactory:
    """Per-(node, request) cache of window-leg characteristics.

    A request's task runtime and cost on a node depend only on the node,
    never on the individual slot, so they are computed once per node and
    reused for every slot of that node — across all AMP re-runs of a CSA
    search when the factory is shared.
    """

    __slots__ = ("_request", "_cache")

    def __init__(self, request: ResourceRequest) -> None:
        self._request = request
        self._cache: dict[int, tuple[float, float]] = {}

    def leg(self, slot: Slot) -> WindowSlot:
        """The window leg for ``slot``, with cached runtime and cost."""
        node = slot.node
        cached = self._cache.get(node.node_id)
        if cached is None:
            duration = self._request.task_runtime_on(node)
            cached = (duration, node.usage_cost(duration))
            self._cache[node.node_id] = cached
        return WindowSlot(slot=slot, required_time=cached[0], cost=cached[1])


def leg_shape_key(request: ResourceRequest) -> tuple:
    """Grouping key under which :class:`LegFactory` caches are shareable.

    A leg's runtime is ``node.task_runtime(reservation_time,
    reference_performance)`` and its cost follows from the runtime alone,
    so factories built for requests agreeing on these two fields produce
    identical legs.  The batched scan layer
    (:mod:`repro.core.batchscan`) shares one factory per shape across
    the budget/deadline/count-varying requests of a cycle's fallback
    scans.
    """
    return (request.reservation_time, request.reference_performance)
