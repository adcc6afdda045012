"""Rolling-horizon slot supply for long-running brokers.

The paper's environment is a single fixed interval (``[0, 600]`` by
default): the generator loads every node's timeline once and the broker
schedules inside it until free time runs out.  A production service has
no final interval — its horizon *rolls*: as the virtual clock advances,
the pool's floor (``SlotPool.advance_floor``, applied through
``trim_before``) garbage-collects the past while new future capacity is
published ahead of ``now``.  This module supplies that future capacity.

:class:`RollingHorizonSource` owns a fixed node fleet and generates
local load **per segment**: virtual time is divided into consecutive
segments of ``stride`` length, and segment ``k`` (spanning
``[origin + k·stride, origin + (k+1)·stride)``) is loaded with its own
spawned RNG — ``np.random.default_rng([seed, k])`` — so the slots of a
segment are a pure function of ``(config, seed, k)``.  Two brokers
driven to the same virtual time see byte-identical pools no matter how
coarsely their clocks stepped, and a soak run can extend the horizon
thousands of times without replaying earlier randomness.

:meth:`RollingHorizonSource.ensure` is the broker-facing entry point:
called with the pool and the current virtual time, it appends every
not-yet-published segment that starts before ``now + lead``.  Combined
with the floor the broker raises on every clock step — the pool trims to
it when next mutated or read, in a steady stream once per cycle — the
live pool stays inside a bounded window ``[now, now + lead + stride)``
over unbounded virtual time — the flat-memory requirement of soak
serving.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.environment.distributions import uniform_int
from repro.environment.generator import EnvironmentConfig
from repro.model.errors import ConfigurationError
from repro.model.resource import CpuNode, NodeSpec
from repro.model.slotpool import SlotPool
from repro.model.timeline import Timeline


@dataclass(frozen=True)
class HorizonConfig:
    """Shape of the rolling horizon.

    Parameters
    ----------
    lead:
        How far ahead of the current virtual time the pool must offer
        free slots.  The broker tops the pool up to ``now + lead`` at
        every cycle, so ``lead`` bounds the furthest start any window
        can be given — it plays the role of the paper's fixed interval
        end, relative to ``now`` instead of absolute.
    stride:
        Segment length: capacity is appended in whole segments of this
        many virtual-time units.  Smaller strides publish capacity in
        finer increments (smoother pool size, more extension calls);
        larger strides amortize generation cost.
    """

    lead: float = 600.0
    stride: float = 600.0

    def __post_init__(self) -> None:
        if self.lead <= 0:
            raise ConfigurationError(f"horizon lead must be positive, got {self.lead}")
        if self.stride <= 0:
            raise ConfigurationError(
                f"horizon stride must be positive, got {self.stride}"
            )


class RollingHorizonSource:
    """Deterministic per-segment slot supply over a fixed node fleet.

    Parameters
    ----------
    config:
        The environment parameters (fleet size, performance range,
        pricing, load model, seed).  ``interval_start`` anchors segment
        0; ``interval_end`` is ignored — the horizon has no end.
    horizon:
        Lead and stride of the rolling window.

    The fleet is generated once (node ``k`` from the spawned stream
    ``[seed, node-tag, k]``), so node identities, prices and
    performances are stable across the whole run — matching the paper's
    model where the *load* is transient but the resource fleet is not.
    """

    #: Spawn-key tags separating the fleet stream from segment streams.
    _NODE_TAG = 0
    _SEGMENT_TAG = 1

    def __init__(self, config: EnvironmentConfig, horizon: HorizonConfig):
        self.config = config
        self.horizon = horizon
        self._origin = config.interval_start
        if config.seed is not None:
            self._seed = int(config.seed)
        else:
            # Draw one entropy-based root so an unseeded source is still
            # internally consistent (every segment derives from it).
            self._seed = int(np.random.default_rng().integers(0, 2**63))
        self.nodes: list[CpuNode] = self._generate_fleet()
        #: Index of the next segment to publish; segments are published
        #: strictly in order so the pool's content at a given horizon is
        #: independent of the call pattern that reached it.
        self._next_segment = 0

    # ------------------------------------------------------------------
    # Fleet
    # ------------------------------------------------------------------
    def _generate_fleet(self) -> list[CpuNode]:
        """The stable node fleet (same sampling as EnvironmentGenerator)."""
        rng = np.random.default_rng([self._seed, self._NODE_TAG])
        low, high = self.config.performance_range
        nodes: list[CpuNode] = []
        for node_id in range(self.config.node_count):
            performance = float(uniform_int(rng, low, high))
            price = self.config.pricing.price_for(performance, rng)
            spec = NodeSpec(
                clock_speed=performance / 2.0, ram=4096, disk=100, os="linux"
            )
            nodes.append(
                CpuNode(
                    node_id=node_id,
                    performance=performance,
                    price_per_unit=price,
                    spec=spec,
                )
            )
        return nodes

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------
    @property
    def segments_published(self) -> int:
        """Number of segments generated so far."""
        return self._next_segment

    @property
    def published_until(self) -> float:
        """Virtual time up to which capacity has been published."""
        return self._origin + self._next_segment * self.horizon.stride

    def _publish_segment(self, pool: SlotPool, segment: int) -> int:
        """Generate segment ``segment``'s load and add its free slots."""
        stride = self.horizon.stride
        seg_start = self._origin + segment * stride
        seg_end = seg_start + stride
        rng = np.random.default_rng([self._seed, self._SEGMENT_TAG, segment])
        added = 0
        for node in self.nodes:
            timeline = Timeline(node, seg_start, seg_end)
            self.config.load.populate(timeline, rng)
            for slot in timeline.free_slots():
                # Coalescing merges a slot starting exactly at the
                # segment boundary with the same node's slot ending
                # there, so segment seams never fragment the pool.
                pool.add(slot)
                added += 1
        return added

    def extend_to(self, pool: SlotPool, target: float) -> int:
        """Publish every unpublished segment starting before ``target``.

        Returns the number of slots added.  Idempotent for a fixed
        ``target``; segments already published are never regenerated.
        """
        added = 0
        while self.published_until < target:
            added += self._publish_segment(pool, self._next_segment)
            self._next_segment += 1
        return added

    def ensure(self, pool: SlotPool, now: float) -> int:
        """Top the pool up so it reaches at least ``now + lead``.

        The broker calls this wherever it raises the pool's floor
        (cycle start, clock advance, drain), making floor + extend one
        bounded-window step; publishing adds slots, so it applies a
        pending floor first.
        Returns the number of slots added.
        """
        return self.extend_to(pool, now + self.horizon.lead)
