"""Dispatch and equivalence tests of the vectorized scan kernel.

The byte-level equivalence net against the frozen pre-change kernel
lives in ``test_scan_equivalence.py`` (the vector path participates in
it transparently through ``aep_scan``).  These tests cover what that
suite cannot: the dispatch seams — counter telemetry, the generic-loop
fallback for unsupported shapes — and a direct vector-vs-generic-loop
comparison that includes the structural counters the reference kernel
does not track.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given

from repro.core import vectorized
from repro.core.aep import aep_scan
from repro.core.algorithms.minproctime import MinProcTime
from repro.core.extractors import (
    EarliestFinishExtractor,
    EarliestStartExtractor,
    Extraction,
    GreedyAdditiveExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
    RandomWindowExtractor,
    cheapest_subset,
    energy_key,
)
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import ResourceRequest, SlotPool
from repro.model.slot import TIME_EPSILON, fits_from, last_start
from tests.conftest import make_slot, scan_fingerprint
from tests.core.reference import reference_scan
from tests.strategies import (
    ADVERSARIAL,
    EDGE_OF_COMMIT,
    EXPIRED_ON_ARRIVAL,
    adversarial_cases,
)

REQUEST = ResourceRequest(node_count=4, reservation_time=60.0, budget=900.0)
#: On the 40-node pools a random 4-subset fits this budget at some steps,
#: busts it at most (the cheapest four then serve), and at a few steps
#: even the cheapest four are too dear — every branch of the random
#: extraction, which the generous ``REQUEST`` never leaves the first of.
TIGHT_REQUEST = ResourceRequest(node_count=4, reservation_time=60.0, budget=450.0)
#: The paper's base resource request (Section 3.1).
BASE_REQUEST = ResourceRequest(node_count=5, reservation_time=150.0, budget=1500.0)


def random_window(attempts: int):
    """Factory of twin-seeded random extractors: every call starts a
    fresh generator on the same seed, so the vector and the generic scan
    draw from identical streams."""
    return lambda: RandomWindowExtractor(
        rng=np.random.default_rng(41), attempts=attempts
    )


EXTRACTORS = [
    EarliestStartExtractor,
    MinTotalCostExtractor,
    MinRuntimeSubstitutionExtractor,
    MinRuntimeExactExtractor,
    EarliestFinishExtractor,
    pytest.param(
        lambda: EarliestFinishExtractor(MinRuntimeExactExtractor()),
        id="EarliestFinishExtractor-exact",
    ),
    GreedyAdditiveExtractor,
    pytest.param(
        lambda: GreedyAdditiveExtractor(energy_key), id="GreedyAdditiveExtractor-energy"
    ),
    pytest.param(random_window(1), id="RandomWindowExtractor-1-attempt"),
    pytest.param(random_window(3), id="RandomWindowExtractor-3-attempts"),
]


def make_pool(node_count: int = 40, seed: int = 17):
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=node_count, seed=seed)
    ).generate()
    return environment.slot_pool()


def counters():
    return dict(vectorized.scan_counters)


class TestDispatch:
    def test_pool_scan_takes_vector_path(self):
        pool = make_pool()
        before = counters()
        result = aep_scan(REQUEST, pool, MinTotalCostExtractor())
        assert result is not None
        assert vectorized.scan_counters["vectorized"] == before["vectorized"] + 1
        assert vectorized.scan_counters["fallback"] == before["fallback"]

    @pytest.mark.parametrize(
        "make_extractor, stop_at_first",
        [
            (EarliestStartExtractor, True),
            (MinTotalCostExtractor, False),
            (MinRuntimeSubstitutionExtractor, False),
            (EarliestFinishExtractor, False),
        ],
        ids=["start_time", "cost", "runtime", "finish_time"],
    )
    def test_base_request_criteria_take_vector_path(self, make_extractor, stop_at_first):
        # The paper's base job (n = 5, t = 150, S = 1500) under each
        # window criterion, on a generated 20-node pool: the kernel serves
        # the scan and the generic loop never runs.
        pool = make_pool(node_count=20, seed=2013)
        before = counters()
        result = aep_scan(
            BASE_REQUEST, pool, make_extractor(), stop_at_first=stop_at_first
        )
        assert result is not None
        assert vectorized.scan_counters["vectorized"] == before["vectorized"] + 1
        assert vectorized.scan_counters["fallback"] == before["fallback"]

    def test_one_shot_iterator_takes_generic_loop(self):
        # Dispatch selects from the input type: an iterator cannot be
        # snapshotted into columns, so the generic loop serves it.
        pool = make_pool()
        before = counters()
        result = aep_scan(REQUEST, iter(pool.ordered()), MinTotalCostExtractor())
        assert result is not None
        assert vectorized.scan_counters["vectorized"] == before["vectorized"]
        assert vectorized.scan_counters["fallback"] == before["fallback"] + 1

    def test_unsorted_input_still_raises_order_error(self):
        # The vector kernel refuses unsorted snapshots; the generic loop
        # must keep its contractual ValueError on out-of-order slots.
        slots = make_pool().ordered()
        slots[0], slots[-1] = slots[-1], slots[0]
        with pytest.raises(ValueError):
            aep_scan(REQUEST, slots, MinTotalCostExtractor())

    def test_subclassed_extractor_falls_back(self):
        class Derived(MinTotalCostExtractor):
            pass

        pool = make_pool()
        before = counters()
        result = aep_scan(REQUEST, pool, Derived())
        assert result is not None
        assert vectorized.scan_counters["fallback"] == before["fallback"] + 1

    def test_randomized_minproctime_takes_vector_path(self):
        pool = make_pool()
        before = counters()
        window = MinProcTime(rng=np.random.default_rng(5)).select(REQUEST, pool)
        assert window is not None
        assert vectorized.scan_counters["vectorized"] == before["vectorized"] + 1
        assert vectorized.scan_counters["fallback"] == before["fallback"]

    def test_random_window_with_other_key_or_subclass_falls_back(self):
        # The replay sums runtimes; any other objective, and anything
        # that may override ``extract``, keeps the textbook method.
        class Derived(RandomWindowExtractor):
            pass

        pool = make_pool()
        for extractor in (
            RandomWindowExtractor(rng=np.random.default_rng(5), key=energy_key),
            Derived(rng=np.random.default_rng(5)),
        ):
            before = counters()
            assert aep_scan(REQUEST, pool, extractor) is not None
            assert vectorized.scan_counters["vectorized"] == before["vectorized"]
            assert vectorized.scan_counters["fallback"] == before["fallback"] + 1


class TestVectorObjectEquivalence:
    """Full ``ScanResult`` equality — counters included — per extractor.

    Stronger than the reference-kernel net: the frozen kernel reports
    ``candidate_inserts``/``candidate_expiries`` as zero, so only the
    generic loop can confirm the vector replay reproduces them.  A
    one-shot iterator forces the generic loop (and the textbook
    ``extract``), which shares no code with the replay.  The random
    extractors must also leave their generators in the same state: the
    study shares one stream between MinProcTime and the environment.
    """

    @pytest.mark.parametrize("make_extractor", EXTRACTORS)
    @pytest.mark.parametrize("stop_at_first", [False, True])
    @pytest.mark.parametrize("seed", [3, 29])
    def test_scanresult_identical(self, make_extractor, stop_at_first, seed):
        self.assert_identical(REQUEST, make_extractor, stop_at_first, seed)

    @pytest.mark.parametrize("attempts", [1, 3])
    @pytest.mark.parametrize("stop_at_first", [False, True])
    @pytest.mark.parametrize("seed", [3, 29])
    def test_random_replay_identical_on_a_tight_budget(
        self, attempts, stop_at_first, seed
    ):
        self.assert_identical(
            TIGHT_REQUEST, random_window(attempts), stop_at_first, seed
        )

    @staticmethod
    def assert_identical(request, make_extractor, stop_at_first, seed):
        pool = make_pool(seed=seed)
        before = counters()
        vector_extractor = make_extractor()
        object_extractor = make_extractor()
        vector = aep_scan(
            request, pool, vector_extractor, stop_at_first=stop_at_first
        )
        obj = aep_scan(
            request,
            iter(pool.ordered()),
            object_extractor,
            stop_at_first=stop_at_first,
        )
        assert vectorized.scan_counters["vectorized"] == before["vectorized"] + 1
        assert vectorized.scan_counters["fallback"] == before["fallback"] + 1
        if isinstance(vector_extractor, RandomWindowExtractor):
            assert (
                vector_extractor._rng.bit_generator.state
                == object_extractor._rng.bit_generator.state
            )
        assert (vector is None) == (obj is None)
        if vector is None:
            return
        assert vector.window.start == obj.window.start
        assert [
            (ws.slot.node.node_id, ws.slot.start, ws.slot.end, ws.required_time, ws.cost)
            for ws in vector.window.slots
        ] == [
            (ws.slot.node.node_id, ws.slot.start, ws.slot.end, ws.required_time, ws.cost)
            for ws in obj.window.slots
        ]
        assert vector.value == obj.value
        assert vector.steps == obj.steps
        assert vector.slots_scanned == obj.slots_scanned
        assert vector.candidate_peak == obj.candidate_peak
        assert vector.candidate_inserts == obj.candidate_inserts
        assert vector.candidate_expiries == obj.candidate_expiries


class TestCandidateExpiredOnArrival:
    """A slot whose end passes ``end - start >= runtime - epsilon`` while
    its last start ``end - runtime`` is below ``start - epsilon`` (in
    reals the two tests are one; in floats they part when the runtime
    dwarfs the start).  The scans once inserted such a candidate and
    expired it at the next step, and every replay had to follow.  Now
    insert and expiry read the same last start, so the slot is never a
    candidate: the kernel, the generic loop and ``validate`` agree for
    every criterion."""

    # start 0.88..., runtime 1.52e6: end - start passes ``>= runtime -
    # epsilon``, while end - runtime falls below start - epsilon.
    START = 0.8800301687734118
    END = 1522731.6770924227
    RUNTIME = 1522730.797062255

    def pool(self):
        # Node 0 (performance 1.0: the runtime is the reservation time)
        # is the cheapest by far, so a replay that keeps it alive past
        # its own step puts it in every cost-driven window.
        slots = [make_slot(0, self.START, self.END, performance=1.0, price=1e-13)]
        slots += [
            make_slot(node_id, start, 1e7, performance=1e6, price=1e-6)
            for node_id, start in ((1, 1.0), (2, 2.0))
        ]
        return SlotPool.from_slots(slots)

    def test_the_constructed_slot_sits_on_the_float_boundary(self):
        assert self.END - self.START >= self.RUNTIME - TIME_EPSILON
        assert self.END - self.RUNTIME < self.START - TIME_EPSILON
        assert not fits_from(last_start(self.END, self.RUNTIME), self.START)

    @pytest.mark.parametrize("make_extractor", EXTRACTORS)
    @pytest.mark.parametrize("stop_at_first", [False, True])
    def test_scan_equals_generic_loop(self, make_extractor, stop_at_first):
        pool = self.pool()
        request = ResourceRequest(node_count=2, reservation_time=self.RUNTIME)
        kernel_extractor = make_extractor()
        generic_extractor = make_extractor()
        before = counters()
        kernel = aep_scan(
            request, pool, kernel_extractor, stop_at_first=stop_at_first
        )
        assert vectorized.scan_counters["vectorized"] == before["vectorized"] + 1
        generic = aep_scan(
            request,
            iter(pool.ordered()),
            generic_extractor,
            stop_at_first=stop_at_first,
        )
        assert scan_fingerprint(kernel) == scan_fingerprint(generic)
        if isinstance(kernel_extractor, RandomWindowExtractor):
            assert (
                kernel_extractor._rng.bit_generator.state
                == generic_extractor._rng.bit_generator.state
            )
        assert kernel is not None
        kernel.window.validate(request)
        assert 0 not in kernel.window.nodes()


#: Every stock extractor the kernel replays, as plain factories.
STOCK_EXTRACTORS = [
    EarliestStartExtractor,
    MinTotalCostExtractor,
    MinRuntimeSubstitutionExtractor,
    MinRuntimeExactExtractor,
    EarliestFinishExtractor,
    lambda: EarliestFinishExtractor(MinRuntimeExactExtractor()),
    GreedyAdditiveExtractor,
    lambda: GreedyAdditiveExtractor(energy_key),
    random_window(1),
    random_window(3),
]


@ADVERSARIAL
@given(case=adversarial_cases())
@example(case=EXPIRED_ON_ARRIVAL)
@example(case=EDGE_OF_COMMIT)
def test_kernel_equals_generic_loop_on_adversarial_pools(case):
    """The kernel's plan and the generic loop read one fit test, so on
    pools whose slot ends sit where its float spellings disagree they
    still return the same ``ScanResult`` — every criterion, with and
    without ``stop_at_first`` — and every window validates."""
    pool = case.pool()
    request = case.request
    for make_extractor in STOCK_EXTRACTORS:
        for stop_at_first in (False, True):
            kernel_extractor = make_extractor()
            generic_extractor = make_extractor()
            before = counters()
            kernel = aep_scan(request, pool, kernel_extractor, stop_at_first=stop_at_first)
            assert vectorized.scan_counters["vectorized"] == before["vectorized"] + 1
            generic = aep_scan(
                request, iter(pool.ordered()), generic_extractor, stop_at_first=stop_at_first
            )
            assert scan_fingerprint(kernel) == scan_fingerprint(generic)
            if isinstance(kernel_extractor, RandomWindowExtractor):
                assert (
                    kernel_extractor._rng.bit_generator.state
                    == generic_extractor._rng.bit_generator.state
                )
            if kernel is not None:
                kernel.window.validate(request)


class _CheapestByNodeId:
    """An ``extract``-only user criterion (no stock base class): among
    feasible steps, prefer the window whose cheapest-``n`` legs carry the
    smallest node-id sum — arbitrary, but order- and deadline-sensitive."""

    def extract(self, window_start, candidates, request):
        chosen = cheapest_subset(candidates, request.node_count, float("inf"))
        if chosen is None:
            return None
        value = float(sum(ws.slot.node.node_id for ws in chosen))
        return Extraction(value=value, slots=tuple(chosen))


class TestUserExtractorThroughGenericLoop:
    @pytest.mark.parametrize("seed", [3, 29])
    def test_deadline_scan_matches_reference(self, seed):
        pool = make_pool(seed=seed)
        horizon = max(slot.end for slot in pool)
        request = ResourceRequest(
            node_count=4, reservation_time=60.0, deadline=0.6 * horizon
        )
        before = counters()
        result = aep_scan(request, pool, _CheapestByNodeId())
        assert vectorized.scan_counters["fallback"] == before["fallback"] + 1
        reference = reference_scan(request, pool, _CheapestByNodeId())
        assert result is not None and reference is not None
        assert result.window == reference.window
        assert result.value == reference.value
        assert result.candidate_expiries > 0
        assert (
            result.candidate_inserts + result.candidate_expiries
            <= 2 * result.slots_scanned
        )
