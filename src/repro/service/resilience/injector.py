"""Deterministic live fault injection for the broker's virtual clock.

The offline robustness study samples a whole preemption schedule up
front and replays committed windows against it.  The broker cannot do
that: its horizon is open-ended and the set of nodes worth disturbing
(those hosting committed legs) changes as windows come and go.  The
:class:`RevocationInjector` therefore samples *per advanced interval*:
every time the broker is about to move its clock from ``t0`` to ``t1``,
the injector draws the local-job arrivals that hit the currently active
nodes inside ``[t0, t1)``.

Determinism follows the experiment engine's spawned-stream discipline:
one root :class:`numpy.random.SeedSequence` per injector, one spawned
child per sampled interval, nodes visited in sorted order.  The draws
depend only on the seed, the interval sequence and the active node sets
— never on wall time or hash order — so resilience traces inherit the
broker's determinism contract.

Per interval the expected arrivals per node are a few thousandths, so
the work is in proving most nodes empty.
:func:`~repro.execution.sample_preemption_schedule` does that with one
array draw and one comparison over the node set (the broker passes the
lifecycle's node index, :meth:`~repro.service.JobLifecycle.active_nodes`)
and walks only the nodes with events, reading the same doubles the
scalar per-node calls would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.execution.disturbance import (
    PoissonDisturbances,
    sample_preemption_schedule,
)
from repro.model.slot import TIME_EPSILON


@dataclass(frozen=True)
class NodePreemption:
    """One sampled local-job arrival, pinned to its node."""

    node_id: int
    arrival: float
    length: float

    @property
    def busy_end(self) -> float:
        """When the local job releases the node again."""
        return self.arrival + self.length


class RevocationInjector:
    """Samples node preemptions over broker clock intervals.

    Parameters
    ----------
    model:
        The disturbance model (rate per node per time unit, local-job
        length distribution) — shared calibration with the offline
        replay via :func:`~repro.execution.paper_disturbance_model`.
    seed:
        Root of the injector's :class:`~numpy.random.SeedSequence`; each
        :meth:`sample_interval` call consumes exactly one spawned child
        (and none at all when it can prove the result is empty).
    """

    def __init__(self, model: PoissonDisturbances, seed: int = 0):
        self.model = model
        self._root = np.random.SeedSequence(seed)

    def sample_interval(
        self, start: float, end: float, node_ids: Iterable[int]
    ) -> list[NodePreemption]:
        """Local-job arrivals on ``node_ids`` within ``[start, end)``.

        Returns the arrivals sorted by ``(arrival, node_id)`` — the order
        the broker applies them in.  Empty intervals, a zero rate or an
        empty node set return ``[]`` *without consuming a spawned child*,
        so a rate-0 configuration leaves the stream untouched (the
        strict-no-op guarantee).
        """
        nodes = sorted(node_ids)
        if end <= start + TIME_EPSILON or self.model.rate == 0 or not nodes:
            return []
        (child,) = self._root.spawn(1)
        rng = np.random.default_rng(child)
        schedule = sample_preemption_schedule(
            self.model, nodes, end - start, rng, offset=start
        )
        hits = [
            NodePreemption(
                node_id=node_id, arrival=event.arrival, length=event.length
            )
            for node_id, events in schedule.items()
            for event in events
        ]
        hits.sort(key=lambda hit: (hit.arrival, hit.node_id))
        return hits
