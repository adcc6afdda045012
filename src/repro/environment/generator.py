"""Generation of complete distributed-computing environments.

One *environment* is the state the metascheduler sees at the start of a
scheduling cycle: a set of heterogeneous CPU nodes, each with its own
timeline of local load, and the resulting pool of free slots over the
scheduling interval.  Section 3.1 of the paper fixes the base environment
(100 nodes, performance ~ U{2..10}, market pricing, hypergeometric load in
[10%, 50%], interval [0, 600]); every parameter is exposed here so the
node-count and interval-length sweeps of Tables 1–2 are plain config
changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.environment.distributions import uniform_int
from repro.environment.load import LoadModel
from repro.environment.pricing import MarketPricing
from repro.model.errors import ConfigurationError
from repro.model.resource import CpuNode, NodeSpec
from repro.model.slot import Slot
from repro.model.slotpool import SlotPool
from repro.model.timeline import Timeline


@dataclass(frozen=True)
class EnvironmentConfig:
    """All knobs of the environment generator (paper defaults)."""

    node_count: int = 100
    interval_start: float = 0.0
    interval_end: float = 600.0
    performance_range: tuple[int, int] = (2, 10)
    pricing: MarketPricing = field(default_factory=MarketPricing)
    load: LoadModel = field(default_factory=LoadModel)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {self.node_count}")
        if self.interval_end <= self.interval_start:
            raise ConfigurationError(
                f"empty scheduling interval [{self.interval_start}, {self.interval_end})"
            )
        low, high = self.performance_range
        if low < 1 or high < low:
            raise ConfigurationError(f"invalid performance range {self.performance_range}")

    @property
    def interval_length(self) -> float:
        """Length of the scheduling interval."""
        return self.interval_end - self.interval_start

    def with_node_count(self, node_count: int) -> "EnvironmentConfig":
        """A copy with a different node count (Table 1 sweep)."""
        return replace(self, node_count=node_count)

    def with_interval_length(self, length: float) -> "EnvironmentConfig":
        """A copy with a different interval length (Table 2 sweep)."""
        return replace(self, interval_end=self.interval_start + length)


@dataclass
class Environment:
    """The generated state of one scheduling cycle."""

    config: EnvironmentConfig
    nodes: list[CpuNode]
    timelines: dict[int, Timeline]

    def slots(self) -> list[Slot]:
        """All free slots of all nodes, ordered by non-decreasing start."""
        collected: list[Slot] = []
        for node in self.nodes:
            collected.extend(self.timelines[node.node_id].free_slots())
        collected.sort(key=Slot.sort_key)
        return collected

    def slot_pool(self) -> SlotPool:
        """A fresh :class:`SlotPool` over the current free slots."""
        return SlotPool.from_slots(self.slots())

    def utilization(self) -> float:
        """Average initial utilization across nodes."""
        return float(
            np.mean([timeline.utilization() for timeline in self.timelines.values()])
        )

    def commit_window(self, window) -> None:
        """Mark a window's reservations busy on the node timelines.

        Makes allocations visible to the *next* scheduling cycle; the
        current cycle's slot pools are cut by :meth:`SlotPool.commit_window`.
        """
        for ws in window.slots:
            timeline = self.timelines[ws.slot.node.node_id]
            timeline.add_busy(window.start, window.start + ws.required_time)


class EnvironmentGenerator:
    """Factory producing random environments from a configuration.

    The generator owns a :class:`numpy.random.Generator` seeded from
    ``config.seed``; calling :meth:`generate` repeatedly yields an i.i.d.
    sequence of environments, which is how the paper runs its 5000
    simulated scheduling cycles ("during every single experiment a
    generation of a new distributed computing environment will take
    place").
    """

    def __init__(self, config: EnvironmentConfig, rng: Optional[np.random.Generator] = None):
        self.config = config
        self._rng = rng if rng is not None else np.random.default_rng(config.seed)

    @property
    def rng(self) -> np.random.Generator:
        """The generator's randomness source."""
        return self._rng

    def generate_node(self, node_id: int) -> CpuNode:
        """One heterogeneous node: uniform integer performance, market price."""
        low, high = self.config.performance_range
        performance = float(uniform_int(self._rng, low, high))
        price = self.config.pricing.price_for(performance, self._rng)
        spec = NodeSpec(clock_speed=performance / 2.0, ram=4096, disk=100, os="linux")
        return CpuNode(
            node_id=node_id, performance=performance, price_per_unit=price, spec=spec
        )

    def generate(self) -> Environment:
        """A complete environment: nodes, loaded timelines."""
        nodes = [self.generate_node(node_id) for node_id in range(self.config.node_count)]
        timelines: dict[int, Timeline] = {}
        for node in nodes:
            timeline = Timeline(
                node, self.config.interval_start, self.config.interval_end
            )
            self.config.load.populate(timeline, self._rng)
            timelines[node.node_id] = timeline
        return Environment(config=self.config, nodes=nodes, timelines=timelines)
