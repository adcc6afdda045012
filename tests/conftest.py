"""Shared fixtures: small hand-built environments with known optima, the
kernel shadow oracle, and CPython 3.12's float ``sum()``."""

from __future__ import annotations

import builtins
import copy

import numpy as np
import pytest

from repro.core import AMP, aep, vectorized
from repro.core.algorithms import csa
from repro.model import CpuNode, Job, NodeSpec, ResourceRequest, Slot, SlotPool
from repro.model.slotarrays import SlotArrays

from tests.py312_sum import compensated_sum


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


def consume_window(pool: SlotPool, window) -> None:
    """CSA's ``consume`` cutting of a window found on ``pool``: each
    leg's slot is removed whole."""
    for leg in window.slots:
        pool.remove(leg.slot)


def off_shape_pool(slots) -> SlotPool:
    """A pool holding ``slots`` verbatim, even where two of one node
    overlap or touch: ``from_slots``' bulk load without its neighbour
    check.  No public method builds such a pool; it exists to test the
    check of the pool's shape (``assert_disjoint_per_node``)."""
    pool = SlotPool()
    entries = sorted(((slot.sort_key(), slot) for slot in slots), key=lambda e: e[0])
    for entry in entries:
        pool._by_node.setdefault(entry[1].node.node_id, []).append(entry)
    pool._store.load_sorted(entries)
    return pool


def free_spans(pool: SlotPool) -> dict[int, list[tuple[float, float]]]:
    """The pool's free time as ``node id -> [(start, end), ...]``."""
    return {
        node_id: [(slot.start, slot.end) for slot in slots]
        for node_id, slots in pool.by_node().items()
    }


def stored_spans(pool: SlotPool) -> dict[int, list[tuple[float, float]]]:
    """The slots the pool stores, unclamped by its floor, as
    ``node id -> [(start, end), ...]``."""
    return {
        node_id: [(slot.start, slot.end) for _, slot in bucket]
        for node_id, bucket in pool._by_node.items()
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


def scan_fingerprint(result) -> tuple | None:
    """Everything a :class:`~repro.core.aep.ScanResult` reports: the
    window's start and legs (the slot objects themselves, runtimes and
    costs), the criterion value and every structural counter."""
    if result is None:
        return None
    return (
        result.window.start,
        tuple((ws.slot, ws.required_time, ws.cost) for ws in result.window.slots),
        result.value,
        result.steps,
        result.slots_scanned,
        result.candidate_peak,
        result.candidate_inserts,
        result.candidate_expiries,
    )


def _generator_state(extractor):
    rng = getattr(extractor, "_rng", None)
    return None if rng is None else rng.bit_generator.state


class KernelShadow:
    """Re-runs every kernel-served scan on the generic loop and compares.

    ``checked`` counts the compared scans (``"scan"``) and CSA sweeps
    (``"csa"``); ``divergences`` lists every mismatch as ``(where,
    request, kernel result, twin result)``.
    """

    def __init__(self) -> None:
        self.checked = {"scan": 0, "csa": 0}
        self.divergences: list[tuple] = []

    @staticmethod
    def _uncounted(run, *args, **kwargs):
        # The re-run is the oracle's, not the caller's: its dispatch
        # counts are rolled back so the shadowed run reads as unshadowed.
        saved = dict(vectorized.scan_counters)
        try:
            return run(*args, **kwargs)
        finally:
            vectorized.scan_counters.update(saved)

    def _generic(self, request, slot_list, twin, stop_at_first):
        return self._uncounted(
            aep.aep_scan, request, iter(slot_list), twin, stop_at_first=stop_at_first
        )

    def _compare(self, where, request, kernel, generic) -> None:
        self.checked[where] += 1
        kernel_print = scan_fingerprint(kernel)
        generic_print = scan_fingerprint(generic)
        if kernel_print != generic_print:
            self.divergences.append((where, request, kernel_print, generic_print))

    def _compare_streams(self, where, request, extractor, twin) -> None:
        state = _generator_state(extractor)
        twin_state = _generator_state(twin)
        if state != twin_state:
            self.divergences.append((where, request, state, twin_state))

    def wrap_scan(self, kernel_scan):
        def shadowed(request, slots, extractor, *, stop_at_first=False):
            # A twin in the extractor's current state: for a random
            # extractor, a generator in the same ``bit_generator.state``.
            twin = copy.deepcopy(extractor)
            result = kernel_scan(
                request, slots, extractor, stop_at_first=stop_at_first
            )
            if result is vectorized.UNSUPPORTED:
                return result
            slot_list = vectorized._resolve_arrays(slots)[0].slot_objects()
            generic = self._generic(request, slot_list, twin, stop_at_first)
            self._compare("scan", request, result, generic)
            self._compare_streams("scan", request, extractor, twin)
            return result

        return shadowed

    def wrap_alternatives(self, kernel_alternatives):
        def shadowed(request, slots, cap, policy):
            found = kernel_alternatives(request, slots, cap, policy)
            if found is vectorized.UNSUPPORTED:
                return found
            pool = slots
            if isinstance(slots, SlotArrays):
                pool = SlotPool.from_slots(slots.slot_objects())
            expected = self._uncounted(
                csa.rerun_alternatives, AMP(policy), request, pool, cap, "consume"
            )
            self.checked["csa"] += 1
            windows = [row.as_window() for row in found]
            if not same_windows(windows, expected):
                self.divergences.append(("csa", request, windows, expected))
            return found

        return shadowed


def same_windows(found, expected) -> bool:
    """Equal windows (exact floats) over the very same ``Slot`` objects."""
    return found == expected and all(
        leg.slot is reference_leg.slot
        for window, reference in zip(found, expected)
        for leg, reference_leg in zip(window.slots, reference.slots)
    )


@pytest.fixture
def kernel_shadow(monkeypatch) -> KernelShadow:
    """Shadow every kernel scan with the generic loop for one test.

    Wraps ``repro.core.aep.vectorized_scan`` (what ``aep_scan`` and so
    every stock algorithm dispatches through): each kernel-served scan is
    re-run as ``aep_scan(request, iter(slot_list), twin)`` — the generic
    loop with the textbook ``extract`` on a copy of the extractor taken
    before the kernel ran — and the full results (legs, value, every
    counter) and, for random extractors, the generators' states are
    compared.  It also wraps CSA's consume sweeps
    (``repro.core.algorithms.csa.vectorized_alternatives``): each sweep
    is re-run as the procedure, ``rerun_alternatives(AMP(policy),
    request, pool, cap, "consume")``, and the windows are compared one
    for one; a sweep over a snapshot (the co-allocator's merged shard
    snapshot) is re-run on ``SlotPool.from_slots`` of its
    ``slot_objects()``.  Nothing in ``src/`` knows the shadow exists.
    """
    shadow = KernelShadow()
    monkeypatch.setattr(aep, "vectorized_scan", shadow.wrap_scan(aep.vectorized_scan))
    monkeypatch.setattr(
        csa,
        "vectorized_alternatives",
        shadow.wrap_alternatives(csa.vectorized_alternatives),
    )
    return shadow


@pytest.fixture
def py312_sum(monkeypatch) -> None:
    """Run one test with ``builtins.sum`` replaced by CPython 3.12's
    compensated float summation (:mod:`tests.py312_sum`).  A test that
    passes natively and under this fixture does not depend on which
    interpreter sums its floats: every total that feeds a decision is a
    ``left_sum``."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)


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
