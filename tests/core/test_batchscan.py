"""Batch-level tests: per-job scan parity and request-class grouping.

A cycle scans every job of its batch on one pool snapshot, so the jobs
share that snapshot's cached scan plans: exact duplicates, and requests
that differ only in budget, read one plan.  Every job's scan must still
equal, byte for byte — window spans, criterion value, and every
complexity counter (``steps``, ``slots_scanned``, ``candidate_peak``,
``candidate_inserts``, ``candidate_expiries``) — a scan of that job
alone on the generic loop, which shares no code with the kernel, across
every criterion and ``stop_at_first``.  Request-class grouping
(:meth:`~repro.core.algorithms.base.SlotSelectionAlgorithm.find_alternatives_batch`)
removes repeated searches, never changes a decision.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AMP,
    CSA,
    Exhaustive,
    FirstFit,
    MinCost,
    MinEnergy,
    MinFinish,
    MinIdle,
    MinProcTime,
    MinRunTime,
    RigidBackfill,
)
from repro.core.aep import aep_scan
from repro.core.extractors import (
    EarliestFinishExtractor,
    EarliestStartExtractor,
    GreedyAdditiveExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
)
from repro.core.vectorized import _plan_key, scan_counters
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
    # count, different budgets.
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


def generic_scans(batch, pool, extractor, stop_at_first):
    """One generic-loop scan per job: a one-shot iterator forces the
    loop and the textbook ``extract``."""
    return [
        full_fingerprint(
            aep_scan(
                request, iter(pool.ordered()), extractor, stop_at_first=stop_at_first
            )
        )
        for request in batch
    ]


class TestBatchScanEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "name,make_extractor,stop_at_first",
        CRITERIA,
        ids=[name for name, _, _ in CRITERIA],
    )
    def test_byte_identical_to_sequential(self, seed, name, make_extractor, stop_at_first):
        # The batch's scans on one snapshot, in batch order: one plan per
        # distinct plan key, every later classmate reading it.
        rng = np.random.default_rng(seed)
        pool = fragmented_pool(rng)
        extractor = make_extractor()
        batch = adversarial_batch(rng)
        before = dict(scan_counters)
        kernel = [
            full_fingerprint(
                aep_scan(request, pool, extractor, stop_at_first=stop_at_first)
            )
            for request in batch
        ]
        assert scan_counters["vectorized"] - before["vectorized"] == len(batch)
        plans = len({_plan_key(request) for request in batch})
        assert scan_counters["plans_built"] - before["plans_built"] == plans
        assert kernel == generic_scans(batch, pool, extractor, stop_at_first)

    @pytest.mark.parametrize(
        "name,make_extractor,stop_at_first",
        CRITERIA,
        ids=[name for name, _, _ in CRITERIA],
    )
    def test_object_kernel_parity(self, name, make_extractor, stop_at_first):
        # Each job on its own snapshot of a slot list: no plan is shared.
        rng = np.random.default_rng(101)
        pool = fragmented_pool(rng)
        extractor = make_extractor()
        batch = adversarial_batch(rng)
        before = dict(scan_counters)
        kernel = [
            full_fingerprint(
                aep_scan(
                    request, pool.ordered(), extractor, stop_at_first=stop_at_first
                )
            )
            for request in batch
        ]
        assert scan_counters["plans_built"] - before["plans_built"] == len(batch)
        assert kernel == generic_scans(batch, pool, extractor, stop_at_first)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_all_distinct_batch(self, seed):
        # No two requests are equal: grouping shares no search.
        rng = np.random.default_rng(seed)
        pool = fragmented_pool(rng)
        batch = request_variants(rng)
        assert len(set(batch)) == len(batch)
        before = dict(scan_counters)
        batched = MinCost().find_alternatives_batch(batch, pool)
        assert scan_counters["grouped_classes"] - before["grouped_classes"] == len(batch)
        assert scan_counters["grouped_shared"] == before["grouped_shared"]
        expected = [
            aep_scan(request, iter(pool.ordered()), MinTotalCostExtractor())
            for request in batch
        ]
        assert batched == [[] if res is None else [res.window] for res in expected]

    def test_duplicates_share_one_result_object(self):
        rng = np.random.default_rng(7)
        pool = fragmented_pool(rng)
        request = request_variants(rng)[1]
        before = dict(scan_counters)
        batched = MinCost().find_alternatives_batch([request, request, request], pool)
        assert batched[0][0] is batched[1][0] is batched[2][0]
        assert scan_counters["grouped_jobs"] - before["grouped_jobs"] == 3
        assert scan_counters["grouped_classes"] - before["grouped_classes"] == 1
        assert scan_counters["grouped_shared"] - before["grouped_shared"] == 2
        assert scan_counters["vectorized"] - before["vectorized"] == 1
        assert scan_counters["batch_sweeps"] == before["batch_sweeps"]

    def test_empty_batch(self):
        rng = np.random.default_rng(0)
        pool = fragmented_pool(rng, node_count=2, segments=1)
        assert MinCost().find_alternatives_batch([], pool) == []


#: Every deterministic stock algorithm (the randomized MinProcTime
#: dispatches per job and is not grouped).
DETERMINISTIC = [
    pytest.param(lambda: CSA(max_alternatives=5), id="csa"),
    pytest.param(lambda: CSA(max_alternatives=5, amp_policy="cheapest"), id="csa-cheapest"),
    pytest.param(MinCost, id="mincost"),
    pytest.param(MinRunTime, id="minruntime"),
    pytest.param(lambda: MinRunTime(exact=True), id="minruntime-exact"),
    pytest.param(AMP, id="amp"),
    pytest.param(lambda: AMP("cheapest"), id="amp-cheapest"),
    pytest.param(MinFinish, id="minfinish"),
    pytest.param(lambda: MinFinish(exact=True), id="minfinish-exact"),
    pytest.param(lambda: MinProcTime(simplified=False), id="minproctime-greedy"),
    pytest.param(
        lambda: MinProcTime(simplified=False, exact=True), id="minproctime-exact"
    ),
    pytest.param(MinEnergy, id="minenergy"),
    pytest.param(lambda: MinEnergy(exact=True), id="minenergy-exact"),
    pytest.param(MinIdle, id="minidle"),
    pytest.param(FirstFit, id="firstfit"),
    pytest.param(RigidBackfill, id="backfill"),
    pytest.param(Exhaustive, id="exhaustive"),
]


class TestFindAlternativesBatch:
    """The algorithm-layer entry point: element-for-element identical to
    a sequential per-job ``find_alternatives`` loop for every
    deterministic stock algorithm, on batches with duplicates and
    budget-only variants.  A batch hands out alternatives (CSA's are
    rows of its sweep); they are compared materialized."""

    def windows_fingerprint(self, alternatives):
        return [
            (
                window.start,
                tuple(
                    (ws.slot.node.node_id, ws.slot.start, ws.slot.end)
                    for ws in window.slots
                ),
            )
            for window in (found.as_window() for found in alternatives)
        ]

    @pytest.mark.parametrize("make_search", DETERMINISTIC)
    def test_matches_sequential_loop(self, make_search):
        rng = np.random.default_rng(47)
        pool = fragmented_pool(rng)
        search = make_search()
        assert search.deterministic
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
