"""Shared fixtures: small hand-built environments with known optima."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model import CpuNode, Job, NodeSpec, ResourceRequest, Slot, SlotPool


def make_node(
    node_id: int,
    performance: float = 4.0,
    price: float = 2.0,
    **spec_kwargs,
) -> CpuNode:
    """A node with explicit performance and price (test helper)."""
    return CpuNode(
        node_id=node_id,
        performance=performance,
        price_per_unit=price,
        spec=NodeSpec(**spec_kwargs) if spec_kwargs else NodeSpec(),
    )


def make_slot(
    node_id: int,
    start: float,
    end: float,
    performance: float = 4.0,
    price: float = 2.0,
) -> Slot:
    return Slot(make_node(node_id, performance, price), start, end)


#: Every array column of a snapshot, in a fixed order for byte comparison.
SNAPSHOT_COLUMNS = ("start", "end", "node_row", "node_id", "performance",
                    "price", "clock", "ram", "disk", "power")


def pool_state(pool: SlotPool) -> tuple:
    """Everything observable about a pool's contents: the ordered slots,
    the per-node index and the snapshot's column bytes — what "the pool
    is left unchanged" means for an operation that refuses."""
    arrays = pool.as_arrays()
    return (
        pool.ordered(),
        pool.by_node(),
        [getattr(arrays, column).tobytes() for column in SNAPSHOT_COLUMNS],
        arrays.os_names,
    )


def free_spans(pool: SlotPool) -> dict[int, list[tuple[float, float]]]:
    """The pool's free time as ``node id -> [(start, end), ...]``."""
    return {
        node_id: [(slot.start, slot.end) for slot in slots]
        for node_id, slots in pool.by_node().items()
    }


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def basic_request() -> ResourceRequest:
    """Two tasks of nominal length 20, generous budget."""
    return ResourceRequest(node_count=2, reservation_time=20.0, budget=1000.0)


@pytest.fixture
def basic_job(basic_request: ResourceRequest) -> Job:
    return Job(job_id="job-basic", request=basic_request)


@pytest.fixture
def uniform_pool() -> SlotPool:
    """Four identical nodes (perf 4, price 2), all free on [0, 100).

    A task of nominal length 20 runs 5 units and costs 10 on each node.
    """
    slots = [make_slot(i, 0.0, 100.0) for i in range(4)]
    return SlotPool.from_slots(slots)


@pytest.fixture
def heterogeneous_pool() -> SlotPool:
    """Five nodes with distinct speeds/prices and staggered availability.

    node 0: perf 2,  price 1  -> task(20) runs 10, costs 10, slot [0, 100)
    node 1: perf 4,  price 2  -> task(20) runs  5, costs 10, slot [0, 100)
    node 2: perf 5,  price 4  -> task(20) runs  4, costs 16, slot [10, 100)
    node 3: perf 10, price 9  -> task(20) runs  2, costs 18, slot [20, 100)
    node 4: perf 1,  price 0.5-> task(20) runs 20, costs 10, slot [0, 30)
    """
    slots = [
        make_slot(0, 0.0, 100.0, performance=2.0, price=1.0),
        make_slot(1, 0.0, 100.0, performance=4.0, price=2.0),
        make_slot(2, 10.0, 100.0, performance=5.0, price=4.0),
        make_slot(3, 20.0, 100.0, performance=10.0, price=9.0),
        make_slot(4, 0.0, 30.0, performance=1.0, price=0.5),
    ]
    return SlotPool.from_slots(slots)


def random_small_pool(
    rng: np.random.Generator,
    node_count: int = 8,
    horizon: float = 60.0,
) -> SlotPool:
    """A random small pool for property-style comparisons with Exhaustive."""
    slots = []
    for node_id in range(node_count):
        performance = float(rng.integers(1, 8))
        price = float(rng.uniform(0.5, 6.0))
        node = make_node(node_id, performance, price)
        start = float(rng.uniform(0.0, horizon / 2))
        end = start + float(rng.uniform(5.0, horizon - start))
        slots.append(Slot(node, start, end))
    return SlotPool.from_slots(slots)
