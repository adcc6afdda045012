"""Batched-vs-sequential scan equivalence.

:func:`repro.core.batchscan.batch_aep_scan` must return, for every job
of a batch, a result *byte-identical* to a sequential per-job
:func:`~repro.core.aep.aep_scan` — window spans, criterion value, and
every complexity counter (``steps``, ``slots_scanned``,
``candidate_peak``, ``candidate_inserts``, ``candidate_expiries``) —
across every criterion, ``stop_at_first``, adversarial duplicate-class
batches, budget-only-varying classes (the shared multi-budget sweep),
and against the generic loop, which shares no code with the sweep.
Grouping removes recomputation, never changes a decision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aep import aep_scan
from repro.core.algorithms.amp import AMP
from repro.core.algorithms.csa import CSA
from repro.core.algorithms.mincost import MinCost
from repro.core.algorithms.minruntime import MinRunTime
from repro.core.batchscan import batch_aep_scan, scan_class_key
from repro.core.extractors import (
    EarliestFinishExtractor,
    EarliestStartExtractor,
    GreedyAdditiveExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
)
from repro.core.vectorized import scan_counters
from repro.model import ResourceRequest
from tests.core.test_scan_equivalence import (
    fingerprint,
    fragmented_pool,
    request_variants,
)

SEEDS = [11, 23, 47, 101, 2013]

#: (name, extractor factory, stop_at_first) — every production scan mode.
CRITERIA = [
    ("start_first", EarliestStartExtractor, True),
    ("start_full", EarliestStartExtractor, False),
    ("cost", MinTotalCostExtractor, False),
    ("runtime_substitution", MinRuntimeSubstitutionExtractor, False),
    ("runtime_exact", MinRuntimeExactExtractor, False),
    ("finish", EarliestFinishExtractor, False),
    ("greedy_additive", GreedyAdditiveExtractor, False),
]


def full_fingerprint(result):
    """Window identity plus every complexity counter."""
    if result is None:
        return None
    return fingerprint(result) + (
        result.steps,
        result.slots_scanned,
        result.candidate_peak,
        result.candidate_inserts,
        result.candidate_expiries,
    )


def adversarial_batch(rng: np.random.Generator) -> list[ResourceRequest]:
    """Distinct classes, exact duplicates, and budget-only variants."""
    variants = request_variants(rng)
    batch = list(variants)
    # Exact duplicates of every class, shuffled in.
    batch.extend(variants)
    # Budget-only-varying copies of one shape: same plan key and node
    # count, different budgets — the shared multi-budget sweep path.
    base = variants[0]
    for scale in (0.5, 1.5, 3.0, 10.0):
        batch.append(
            ResourceRequest(
                node_count=base.node_count,
                reservation_time=base.reservation_time,
                budget=float(scale * 60.0),
            )
        )
    order = rng.permutation(len(batch))
    return [batch[index] for index in order]


class TestBatchScanEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "name,make_extractor,stop_at_first",
        CRITERIA,
        ids=[name for name, _, _ in CRITERIA],
    )
    def test_byte_identical_to_sequential(self, seed, name, make_extractor, stop_at_first):
        rng = np.random.default_rng(seed)
        pool = fragmented_pool(rng)
        extractor = make_extractor()
        batch = adversarial_batch(rng)
        sequential = [
            full_fingerprint(
                aep_scan(request, pool, extractor, stop_at_first=stop_at_first)
            )
            for request in batch
        ]
        batched = batch_aep_scan(
            batch, pool, extractor, stop_at_first=stop_at_first
        )
        assert [full_fingerprint(result) for result in batched] == sequential

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_all_distinct_batch(self, seed):
        rng = np.random.default_rng(seed)
        pool = fragmented_pool(rng)
        extractor = MinTotalCostExtractor()
        batch = request_variants(rng)
        assert len({scan_class_key(request) for request in batch}) == len(batch)
        sequential = [
            full_fingerprint(aep_scan(request, pool, extractor))
            for request in batch
        ]
        batched = batch_aep_scan(batch, pool, extractor)
        assert [full_fingerprint(result) for result in batched] == sequential

    def test_duplicates_share_one_result_object(self):
        rng = np.random.default_rng(7)
        pool = fragmented_pool(rng)
        request = request_variants(rng)[1]
        before = dict(scan_counters)
        results = batch_aep_scan([request, request, request], pool, MinTotalCostExtractor())
        assert results[0] is results[1] is results[2]
        assert scan_counters["grouped_jobs"] - before["grouped_jobs"] == 3
        assert scan_counters["grouped_classes"] - before["grouped_classes"] == 1
        assert scan_counters["grouped_shared"] - before["grouped_shared"] == 2
        # One class is one budget: served by the sweep routine, but not
        # counted as a *shared* sweep.
        assert scan_counters["vectorized"] - before["vectorized"] == 1
        assert scan_counters["batch_sweeps"] == before["batch_sweeps"]
        assert scan_counters["batch_sweep_classes"] == before["batch_sweep_classes"]

    def test_budget_only_variants_use_shared_sweep(self):
        rng = np.random.default_rng(23)
        pool = fragmented_pool(rng)
        shapes = [
            ResourceRequest(node_count=3, reservation_time=15.0, budget=budget)
            for budget in (40.0, 90.0, 200.0, 1000.0)
        ]
        extractor = MinTotalCostExtractor()
        before = dict(scan_counters)
        batched = batch_aep_scan(shapes, pool, extractor)
        assert scan_counters["batch_sweeps"] - before["batch_sweeps"] == 1
        assert (
            scan_counters["batch_sweep_classes"] - before["batch_sweep_classes"]
            == 4
        )
        sequential = [
            full_fingerprint(aep_scan(request, pool, extractor))
            for request in shapes
        ]
        assert [full_fingerprint(result) for result in batched] == sequential

    @pytest.mark.parametrize(
        "name,make_extractor,stop_at_first",
        CRITERIA,
        ids=[name for name, _, _ in CRITERIA],
    )
    def test_object_kernel_parity(self, name, make_extractor, stop_at_first):
        rng = np.random.default_rng(101)
        pool = fragmented_pool(rng)
        extractor = make_extractor()
        batch = adversarial_batch(rng)
        # A one-shot iterator forces the generic loop and the textbook
        # ``extract``: a reference the batched sweeps share no code with.
        sequential = [
            full_fingerprint(
                aep_scan(
                    request,
                    iter(pool.ordered()),
                    extractor,
                    stop_at_first=stop_at_first,
                )
            )
            for request in batch
        ]
        batched = batch_aep_scan(
            batch, pool, extractor, stop_at_first=stop_at_first
        )
        assert [full_fingerprint(result) for result in batched] == sequential

    def test_empty_batch(self):
        rng = np.random.default_rng(0)
        pool = fragmented_pool(rng, node_count=2, segments=1)
        assert batch_aep_scan([], pool, MinTotalCostExtractor()) == []


class TestScanClassKey:
    def test_budget_only_difference_changes_key_not_plan(self):
        cheap = ResourceRequest(node_count=3, reservation_time=10.0, budget=50.0)
        rich = ResourceRequest(node_count=3, reservation_time=10.0, budget=500.0)
        assert scan_class_key(cheap) != scan_class_key(rich)
        assert scan_class_key(cheap)[0] == scan_class_key(rich)[0]

    def test_equal_effective_budget_groups(self):
        explicit = ResourceRequest(node_count=2, reservation_time=10.0, budget=100.0)
        twin = ResourceRequest(node_count=2, reservation_time=10.0, budget=100.0)
        assert scan_class_key(explicit) == scan_class_key(twin)


class TestFindAlternativesBatch:
    """The algorithm-layer entry point: element-for-element identical to
    a sequential per-job ``find_alternatives`` loop for the whole
    production family."""

    def windows_fingerprint(self, windows):
        return [
            (
                window.start,
                tuple(
                    (ws.slot.node.node_id, ws.slot.start, ws.slot.end)
                    for ws in window.slots
                ),
            )
            for window in windows
        ]

    @pytest.mark.parametrize(
        "make_search",
        [
            lambda: CSA(max_alternatives=5),
            MinCost,
            MinRunTime,
            AMP,
        ],
        ids=["csa", "mincost", "minruntime", "amp"],
    )
    def test_matches_sequential_loop(self, make_search):
        rng = np.random.default_rng(47)
        pool = fragmented_pool(rng)
        search = make_search()
        batch = adversarial_batch(rng)
        sequential = [
            self.windows_fingerprint(search.find_alternatives(request, pool, 5))
            for request in batch
        ]
        batched = search.find_alternatives_batch(batch, pool, limit=5)
        assert [self.windows_fingerprint(windows) for windows in batched] == sequential

    def test_duplicate_jobs_get_independent_lists(self):
        rng = np.random.default_rng(11)
        pool = fragmented_pool(rng)
        request = request_variants(rng)[0]
        search = CSA(max_alternatives=3)
        batched = search.find_alternatives_batch([request, request], pool, limit=3)
        assert batched[0] == batched[1]
        assert batched[0] is not batched[1]  # shallow copies, safe to mutate
