"""Old-vs-new scan equivalence: the incremental kernel must select
window-for-window identical results to the frozen pre-change kernel
(:mod:`tests.core.reference`) for every criterion, across random pools,
seeds, and budget/deadline configurations.  Equality is exact — floats
are compared byte-for-byte, not approximately — because the incremental
kernel is engineered to reproduce the reference's summation orders and
tie-breaking, not merely its optima.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aep import aep_scan
from repro.core.extractors import (
    EarliestFinishExtractor,
    EarliestStartExtractor,
    GreedyAdditiveExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
    RandomWindowExtractor,
)
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import ResourceRequest, Slot, SlotPool
from tests.conftest import make_node
from tests.core.reference import (
    ReferenceGreedyAdditiveExtractor,
    ReferenceMinRuntimeSubstitutionExtractor,
    reference_scan,
)

SEEDS = [11, 23, 47, 101, 2013]

#: (name, incremental-path extractor, frozen reference extractor, stop_at_first)
CRITERIA = [
    ("start_first", EarliestStartExtractor, EarliestStartExtractor, True),
    ("start_full", EarliestStartExtractor, EarliestStartExtractor, False),
    ("cost", MinTotalCostExtractor, MinTotalCostExtractor, False),
    (
        "runtime_substitution",
        MinRuntimeSubstitutionExtractor,
        ReferenceMinRuntimeSubstitutionExtractor,
        False,
    ),
    ("runtime_exact", MinRuntimeExactExtractor, MinRuntimeExactExtractor, False),
    (
        "finish",
        EarliestFinishExtractor,
        lambda: EarliestFinishExtractor(
            runtime_extractor=ReferenceMinRuntimeSubstitutionExtractor()
        ),
        False,
    ),
    (
        "greedy_additive",
        GreedyAdditiveExtractor,
        ReferenceGreedyAdditiveExtractor,
        False,
    ),
]


def fragmented_pool(
    rng: np.random.Generator,
    node_count: int = 10,
    segments: int = 3,
    horizon: float = 120.0,
) -> SlotPool:
    """Several disjoint slots per node, so candidates expire mid-scan."""
    slots = []
    for node_id in range(node_count):
        node = make_node(
            node_id, float(rng.integers(1, 8)), float(rng.uniform(0.5, 6.0))
        )
        cursor = float(rng.uniform(0.0, 10.0))
        for _ in range(segments):
            length = float(rng.uniform(5.0, horizon / segments))
            slots.append(Slot(node, cursor, cursor + length))
            cursor += length + float(rng.uniform(1.0, 10.0))
    return SlotPool.from_slots(slots)


def request_variants(rng: np.random.Generator) -> list[ResourceRequest]:
    """Unlimited, tight-budget, budget+deadline, and deadline-only requests."""
    node_count = int(rng.integers(2, 5))
    reservation = float(rng.uniform(5.0, 25.0))
    return [
        ResourceRequest(node_count=node_count, reservation_time=reservation),
        ResourceRequest(
            node_count=node_count,
            reservation_time=reservation,
            budget=float(rng.uniform(20.0, 120.0)),
        ),
        ResourceRequest(
            node_count=node_count,
            reservation_time=reservation,
            budget=float(rng.uniform(120.0, 400.0)),
            deadline=float(rng.uniform(30.0, 90.0)),
        ),
        ResourceRequest(
            node_count=node_count,
            reservation_time=reservation,
            deadline=float(rng.uniform(20.0, 60.0)),
        ),
    ]


def fingerprint(result):
    """Exact structural identity of a scan result (or None)."""
    if result is None:
        return None
    return (
        result.window.start,
        result.value,
        tuple(
            (
                ws.slot.node.node_id,
                ws.slot.start,
                ws.slot.end,
                ws.required_time,
                ws.cost,
            )
            for ws in result.window.slots
        ),
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name,make_new,make_old,stop_at_first",
    CRITERIA,
    ids=[row[0] for row in CRITERIA],
)
def test_equivalence_random_pools(seed, name, make_new, make_old, stop_at_first):
    rng = np.random.default_rng(seed)
    pool = fragmented_pool(rng, node_count=int(rng.integers(6, 14)))
    for request in request_variants(rng):
        new = aep_scan(request, pool, make_new(), stop_at_first=stop_at_first)
        old = reference_scan(request, pool, make_old(), stop_at_first=stop_at_first)
        assert fingerprint(new) == fingerprint(old), (
            f"criterion {name} diverged (seed {seed}, request {request})"
        )
        if new is not None:
            assert new.steps == old.steps
            assert new.slots_scanned == old.slots_scanned


def test_equivalence_random_pools_with_py312_sum(py312_sum):
    """The seed whose MinTotalCost values once rounded one way in the
    kernel's ascending loop and another in a compensated ``sum()``."""
    cost = next(row for row in CRITERIA if row[0] == "cost")
    test_equivalence_random_pools(101, *cost)


@pytest.mark.parametrize(
    "name,make_new,make_old,stop_at_first",
    CRITERIA,
    ids=[row[0] for row in CRITERIA],
)
def test_equivalence_base_environment(name, make_new, make_old, stop_at_first):
    """The paper's base environment: 100 nodes, seed 2013, base job."""
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=100, seed=2013)
    ).generate()
    slots = environment.slot_pool().ordered()
    for request in (
        ResourceRequest(node_count=5, reservation_time=150.0, budget=1500.0),
        ResourceRequest(
            node_count=5, reservation_time=150.0, budget=1500.0, deadline=400.0
        ),
    ):
        new = aep_scan(request, slots, make_new(), stop_at_first=stop_at_first)
        old = reference_scan(request, slots, make_old(), stop_at_first=stop_at_first)
        assert fingerprint(new) == fingerprint(old), f"criterion {name} diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_random_window_extractor(seed):
    """Order-sensitive extraction: twin seeded rngs must draw identically,
    which requires the incremental kernel to present candidates in the
    reference's scan order."""
    rng = np.random.default_rng(seed)
    pool = fragmented_pool(rng, node_count=8)
    request = ResourceRequest(
        node_count=3,
        reservation_time=float(rng.uniform(5.0, 20.0)),
        budget=float(rng.uniform(50.0, 300.0)),
    )
    new = aep_scan(
        request, pool, RandomWindowExtractor(rng=np.random.default_rng(seed * 7 + 1))
    )
    old = reference_scan(
        request, pool, RandomWindowExtractor(rng=np.random.default_rng(seed * 7 + 1))
    )
    assert fingerprint(new) == fingerprint(old)


@pytest.mark.parametrize("deadline", [None, 400.0])
def test_equivalence_random_window_extractor_base_environment(deadline):
    """The same on the paper's base environment (100 nodes, seed 2013,
    base job), where nearly every draw busts the budget and the
    cheapest-``n`` fallback decides the step."""
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=100, seed=2013)
    ).generate()
    pool = environment.slot_pool()
    request = ResourceRequest(
        node_count=5, reservation_time=150.0, budget=1500.0, deadline=deadline
    )
    new_rng = np.random.default_rng(2013)
    old_rng = np.random.default_rng(2013)
    new = aep_scan(request, pool, RandomWindowExtractor(rng=new_rng))
    old = reference_scan(request, pool, RandomWindowExtractor(rng=old_rng))
    assert new is not None
    assert fingerprint(new) == fingerprint(old)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def test_equivalence_infeasible_everywhere():
    """Both kernels agree on None when no feasible window exists."""
    pool = SlotPool.from_slots([Slot(make_node(0), 0.0, 50.0)])
    request = ResourceRequest(node_count=3, reservation_time=10.0, budget=5.0)
    for _, make_new, make_old, stop_at_first in CRITERIA:
        assert aep_scan(request, pool, make_new(), stop_at_first=stop_at_first) is None
        assert (
            reference_scan(request, pool, make_old(), stop_at_first=stop_at_first)
            is None
        )
