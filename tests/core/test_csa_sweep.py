"""CSA's one-sweep kernels against the copy / AMP re-run / cut procedure.

With ``consume`` cutting, ``CSA.find_alternatives`` collects every
alternative from one sweep
(:func:`repro.core.vectorized.vectorized_alternatives`) instead of
re-running AMP on a working copy that is cut between runs: a continuing
pass for the cheapest policy, a pass that resumes from checkpoints for
the paper's eviction ("first") policy.  The procedure itself
(:func:`repro.core.algorithms.csa.rerun_alternatives`) is the
reference: both must return equal windows over the *same* ``Slot``
objects, for every request shape and cap.  The counter tests pin what
the sweep saves (one plan, no pool copy, no mutation) and when the
procedure still runs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given

from repro.core import AMP, CSA, vectorized
from repro.core.algorithms.csa import rerun_alternatives
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.model import TIME_EPSILON, ResourceRequest, Slot, SlotPool
from repro.model.slot import fits_from, last_start
from tests.conftest import consume_window, make_node, make_slot, same_windows
from tests.strategies import (
    ADVERSARIAL,
    EDGE_OF_COMMIT,
    EXPIRED_ON_ARRIVAL,
    adversarial_cases,
)

SEEDS = [11, 23, 47, 2013]
NODE_COUNTS = [1, 2, 5, 12]
CAPS = [0, 1, 3, None]
POLICIES = ["cheapest", "first"]
#: Per-leg budget share: a fragmented-pool leg costs 0.6 .. 60.  A
#: ``starved`` budget leaves the cheapest sweep a small rank prefix of
#: survivors for n > 1, so it walks them alone.
BUDGETS = {"starved": 3.0, "tight": 5.0, "loose": 25.0, "absent": None}
HARDWARE = [
    {},
    {"min_performance": 3.0},
    {"max_price_per_unit": 4.0},
]


def procedure(request, pool, cap=None, policy="cheapest", mode="consume"):
    """The reference: AMP re-run and cut, as the paper states CSA."""
    return rerun_alternatives(AMP(policy), request, pool, cap, mode)


def sweep_csa(policy="cheapest", **kwargs) -> CSA:
    return CSA(amp_policy=policy, cut_mode="consume", **kwargs)


def assert_identical(found, expected):
    """Equal windows (exact floats) over the very same ``Slot`` objects."""
    assert found == expected
    assert same_windows(found, expected)
    for window in found:
        # Every window contains the slot whose step formed it.
        assert any(leg.slot.start == window.start for leg in window.slots)


def assert_legs_meet(deadline, windows):
    """Every leg — not only the window's start — finishes by the deadline."""
    for window in windows:
        for leg in window.slots:
            assert window.start + leg.required_time <= deadline + TIME_EPSILON


def fragmented_pool(
    seed: int, node_count: int = 24, segments: int = 4, offset: float = 0.0
) -> SlotPool:
    """Several disjoint slots per node, so candidates expire mid-sweep;
    the first start on each node is drawn from ``offset + [0, 10)``."""
    rng = np.random.default_rng(seed)
    slots = []
    for node_id in range(node_count):
        node = make_node(
            node_id, float(rng.integers(1, 8)), float(rng.uniform(0.5, 6.0))
        )
        cursor = offset + float(rng.uniform(0.0, 10.0))
        for _ in range(segments):
            length = float(rng.uniform(5.0, 40.0))
            slots.append(Slot(node, cursor, cursor + length))
            cursor += length + float(rng.uniform(1.0, 10.0))
    return SlotPool.from_slots(slots)


def counters():
    return dict(vectorized.scan_counters)


def sweep_regimes(monkeypatch) -> Counter:
    """Count the cheapest sweeps by pruning regime from here on:
    ``"doomed"`` (no rank survives the bound), ``"walk"`` (the survivors
    walked alone), ``"inline"`` (ranks pruned inline) or ``"whole"``
    (every rank survives)."""
    regimes: Counter = Counter()
    walked = []
    real_walk = vectorized._walk_extras
    real_sweep = vectorized._run_cheapest_consume

    def walk(plan):
        walked.append(plan)
        return real_walk(plan)

    def sweep(plan, n, budget, cap):
        del walked[:]
        hits = real_sweep(plan, n, budget, cap)
        count = plan.count
        bound = 0
        if count >= n:
            bound = vectorized._rank_bound(plan.cost_by_crank, n, budget)
        if bound < n:
            regimes["doomed"] += 1
        elif walked:
            regimes["walk"] += 1
        else:
            regimes["inline" if bound < count else "whole"] += 1
        return hits

    monkeypatch.setattr(vectorized, "_walk_extras", walk)
    monkeypatch.setattr(vectorized, "_run_cheapest_consume", sweep)
    return regimes


def counter_delta(before):
    return {
        key: vectorized.scan_counters[key] - before[key]
        for key in before
        if vectorized.scan_counters[key] != before[key]
    }


class TestSweepEqualsLoop:
    @pytest.mark.parametrize("deadline", [None, 70.0])
    @pytest.mark.parametrize("budget_kind", list(BUDGETS))
    @pytest.mark.parametrize("node_count", NODE_COUNTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_pools(self, seed, node_count, budget_kind, deadline):
        pool = fragmented_pool(seed)
        share = BUDGETS[budget_kind]
        for hardware in HARDWARE:
            request = ResourceRequest(
                node_count=node_count,
                reservation_time=10.0,
                budget=None if share is None else share * node_count,
                deadline=deadline,
                **hardware,
            )
            for policy in POLICIES:
                for cap in CAPS:
                    found = sweep_csa(policy).find_alternatives(
                        request, pool, limit=cap
                    )
                    assert_identical(found, procedure(request, pool, cap, policy))
                    if deadline is not None:
                        assert_legs_meet(deadline, found)

    def test_parametrization_is_not_vacuous(self, monkeypatch):
        regimes = sweep_regimes(monkeypatch)
        for policy in POLICIES:
            counts = {kind: 0 for kind in BUDGETS}
            for seed in SEEDS:
                pool = fragmented_pool(seed)
                for kind, share in BUDGETS.items():
                    request = ResourceRequest(
                        node_count=2,
                        reservation_time=10.0,
                        budget=None if share is None else share * 2,
                    )
                    counts[kind] += len(
                        sweep_csa(policy).find_alternatives(request, pool)
                    )
            assert (
                0
                < counts["starved"]
                < counts["tight"]
                < counts["loose"]
                < counts["absent"]
            )
        # Both pruning regimes of the cheapest sweep run, and hit.
        assert regimes["walk"] > 0 and regimes["inline"] > 0

    @pytest.mark.parametrize("seed", [3, 2013])
    def test_generated_environment(self, seed):
        environment = EnvironmentGenerator(
            EnvironmentConfig(node_count=60, seed=seed)
        ).generate()
        pool = environment.slot_pool()
        for node_count, budget in [(1, None), (2, 400.0), (5, 1000.0), (12, None)]:
            request = ResourceRequest(
                node_count=node_count, reservation_time=60.0, budget=budget
            )
            for policy in POLICIES:
                found = sweep_csa(policy).find_alternatives(request, pool)
                assert len(found) > 1
                assert_identical(found, procedure(request, pool, policy=policy))

    def test_limit_takes_precedence_over_max_alternatives(self):
        pool = fragmented_pool(11)
        request = ResourceRequest(node_count=2, reservation_time=10.0)
        for policy in POLICIES:
            everything = procedure(request, pool, policy=policy)
            assert len(everything) > 5
            csa = sweep_csa(policy, max_alternatives=3)
            assert_identical(csa.find_alternatives(request, pool), everything[:3])
            for limit in (1, 5):
                assert_identical(
                    csa.find_alternatives(request, pool, limit=limit),
                    everything[:limit],
                )
            assert csa.find_alternatives(request, pool, limit=0) == []


class TestHandBuiltPools:
    """Edge cases of the consumption bookkeeping (task(20) on the default
    node runs 5 and costs 10)."""

    @staticmethod
    def check(slots, request, expected_starts, policy="cheapest"):
        pool = SlotPool.from_slots(slots)
        found = sweep_csa(policy).find_alternatives(request, pool)
        assert_identical(found, procedure(request, pool, policy=policy))
        assert [window.start for window in found] == expected_starts
        return found

    def test_slots_sharing_one_start_give_two_windows_there(self):
        slots = [make_slot(node_id, 0.0, 100.0) for node_id in range(5)]
        request = ResourceRequest(node_count=2, reservation_time=20.0)
        found = self.check(slots, request, [0.0, 0.0])
        assert [sorted(window.nodes()) for window in found] == [[0, 1], [2, 3]]

    def test_hit_consumes_older_candidates_next_hit_needs_new_ones(self):
        # Two over-priced slots wait alive; the cheap pairs form windows
        # around them, each with the slot that arrived at its step.
        slots = [
            make_slot(0, 0.0, 100.0, price=8.0),
            make_slot(1, 0.0, 100.0, price=8.0),
            make_slot(2, 5.0, 100.0),
            make_slot(3, 5.0, 100.0),
            make_slot(4, 5.0, 100.0),
            make_slot(5, 9.0, 100.0),
        ]
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=20.0)
        found = self.check(slots, request, [5.0, 9.0])
        assert [sorted(window.nodes()) for window in found] == [[2, 3], [4, 5]]

    def test_equal_cost_ties_break_by_runtime_then_arrival(self):
        slots = [
            make_slot(0, 0.0, 100.0, performance=2.0, price=1.0),  # runs 10, costs 10
            make_slot(1, 1.0, 100.0),  # runs 5, costs 10
            make_slot(2, 2.0, 100.0),  # runs 5, costs 10
            make_slot(3, 3.0, 100.0, price=1.0),  # costs 5
            make_slot(4, 4.0, 100.0, price=1.0),
            make_slot(5, 5.0, 100.0, price=1.0),
        ]
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=15.0)
        found = self.check(slots, request, [3.0, 4.0, 5.0])
        assert [window.nodes() for window in found] == [[3, 1], [4, 2], [5, 0]]

    def test_fewer_matching_nodes_than_requested(self):
        slots = [
            make_slot(0, 0.0, 100.0, performance=6.0),
            make_slot(1, 0.0, 100.0, performance=6.0),
            make_slot(2, 0.0, 100.0, performance=2.0),
            make_slot(3, 0.0, 100.0, performance=2.0),
        ]
        request = ResourceRequest(
            node_count=3, reservation_time=20.0, min_performance=5.0
        )
        for policy in POLICIES:
            self.check(slots, request, [], policy)

    def test_consumed_candidate_is_not_expired_a_second_time(self):
        # Nodes 0 and 1 are consumed at start 0 and reach their expiry
        # time only at the step of node 4; counting them out again there
        # would lose the last window.
        slots = [
            make_slot(0, 0.0, 30.0),
            make_slot(1, 0.0, 30.0),
            make_slot(2, 10.0, 100.0),
            make_slot(3, 20.0, 100.0),
            make_slot(4, 50.0, 100.0),
            make_slot(5, 50.0, 100.0),
        ]
        request = ResourceRequest(node_count=2, reservation_time=20.0)
        self.check(slots, request, [0.0, 20.0, 50.0])

    def test_unconsumed_candidate_still_expires(self):
        # Node 0 is never affordable next to node 1 and must be gone by
        # the time nodes 2 and 3 arrive.
        slots = [
            make_slot(0, 0.0, 12.0, price=3.0),
            make_slot(1, 0.0, 100.0, price=3.0),
            make_slot(2, 20.0, 100.0, price=1.0),
            make_slot(3, 30.0, 100.0, price=1.0),
        ]
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=20.0)
        found = self.check(slots, request, [20.0])
        assert found[0].nodes() == [2, 1]

    def test_window_of_candidates_older_than_the_last_hit(self):
        # The sweep takes the cheapest-three sum only at a step whose own
        # slot enters the cheapest three.  Costs: nodes 0-6 wait from
        # start 0 with 10, 11, 12, 13, 13.5, 14, 14.5 (cheapest three 33,
        # over the budget; nodes 3-6 rank above them and are not tested);
        # nodes 0 and 1 expire before start 4, where node 7 (cost 5)
        # hits with nodes 2 and 3.  The three cheapest left — nodes 4, 5,
        # 6 — are all older than that hit and over the budget, node 8
        # (cost 20) ranks above them, and node 9 (cost 4) must still
        # find nodes 4 and 5 beside it.
        prices = [2.0, 2.2, 2.4, 2.6, 2.7, 2.8, 2.9]
        slots = [
            make_slot(node_id, 0.0, 8.0 if node_id < 2 else 100.0, price=price)
            for node_id, price in enumerate(prices)
        ]
        slots += [
            make_slot(7, 4.0, 100.0, price=1.0),
            make_slot(8, 4.5, 100.0, price=4.0),
            make_slot(9, 5.0, 100.0, price=0.8),
        ]
        request = ResourceRequest(node_count=3, reservation_time=20.0, budget=32.0)
        found = self.check(slots, request, [4.0, 5.0])
        assert [window.nodes() for window in found] == [[7, 2, 3], [9, 4, 5]]


class TestCandidateExpiredOnArrival:
    """A slot whose end passes ``end - start >= runtime - epsilon`` while
    its last start ``end - runtime`` falls below ``start - epsilon`` (in
    reals the two tests are one; in floats they part when the runtime
    dwarfs the start).  The scans once inserted it by the first test and
    expired it by the second, and every sweep had to replay that.  Every
    scan, sweep, check and cut now reads the last start, so the slot is
    simply never a candidate: the sweeps, the procedure on the generic
    loop and ``validate`` agree."""

    # start 0.88..., runtime 1.52e6: end - start passes ``>= runtime -
    # epsilon``, while end - runtime falls below start - epsilon.
    START = 0.8800301687734118
    END = 1522731.6770924227
    RUNTIME = 1522730.797062255

    @staticmethod
    def generic_procedure(request, pool, policy="cheapest", cap=None):
        """AMP re-run and cut with every scan on the generic loop."""
        working = pool.copy()
        found = []
        while cap is None or len(found) < cap:
            window = AMP(policy).select(request, iter(working.ordered()))
            if window is None:
                break
            found.append(window)
            consume_window(working, window)
        return found

    def pool(self, *later):
        # performance 1.0 makes the node's runtime the reservation time.
        slots = [make_slot(0, self.START, self.END, performance=1.0, price=1e-6)]
        slots += [
            make_slot(node_id, start, 1e7, performance=1e6, price=1e-6)
            for node_id, start in enumerate(later, start=1)
        ]
        return SlotPool.from_slots(slots)

    def test_the_constructed_slot_sits_on_the_float_boundary(self):
        assert self.END - self.START >= self.RUNTIME - TIME_EPSILON
        assert self.END - self.RUNTIME < self.START - TIME_EPSILON
        assert not fits_from(last_start(self.END, self.RUNTIME), self.START)

    @pytest.mark.parametrize("later", [(1.0,), (1.0, 2.0), (2.0, 2.0, 3.0)])
    def test_dead_candidate_is_dropped_at_the_next_step(self, later):
        pool = self.pool(*later)
        request = ResourceRequest(node_count=2, reservation_time=self.RUNTIME)
        found = sweep_csa("cheapest").find_alternatives(request, pool)
        expected = self.generic_procedure(request, pool)
        assert found == expected
        assert same_windows(found, expected)
        assert_identical(found, procedure(request, pool))
        for window in found:
            window.validate(request)
            assert 0 not in window.nodes()

    def test_dead_candidate_is_dropped_in_the_survivor_walk(self, monkeypatch):
        # Cheapest of all, next to six slots the budget cannot afford:
        # the sweep walks the three survivors alone.
        slots = [make_slot(0, self.START, self.END, performance=1.0, price=1e-9)]
        slots += [
            make_slot(node_id, start, 1e7, performance=1e6, price=2e-3)
            for node_id, start in ((1, 1.0), (2, 2.0))
        ]
        slots += [
            make_slot(node_id, 5.0, 1e7, performance=1e6, price=1.0)
            for node_id in range(3, 9)
        ]
        pool = SlotPool.from_slots(slots)
        request = ResourceRequest(
            node_count=2, reservation_time=self.RUNTIME, budget=0.01
        )
        regimes = sweep_regimes(monkeypatch)
        found = sweep_csa("cheapest").find_alternatives(request, pool)
        assert regimes == {"walk": 1}
        expected = self.generic_procedure(request, pool)
        assert found == expected
        assert [window.nodes() for window in found] == [[1, 2]]

    @staticmethod
    def arrival_expired_end(start, runtime):
        """A slot end that passes the insertable test at ``start`` while
        ``end - runtime`` falls below ``start - epsilon``, or ``None``."""
        end = start + runtime
        for _ in range(8):
            if end - start >= runtime - TIME_EPSILON and (
                end - runtime < start - TIME_EPSILON
            ):
                return end
            end = math.nextafter(end, -math.inf)
        return None

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pools_with_candidates_expired_on_arrival(self, seed):
        rng = np.random.default_rng(seed)
        runtime = float(rng.uniform(1e6, 1e7))
        slots = []
        for node_id in range(14):
            start = float(rng.uniform(0.0, 4.0))
            end = self.arrival_expired_end(start, runtime)
            if end is not None and rng.random() < 0.6:
                price = float(rng.choice([1e-9, 1e-6]))
                slots.append(make_slot(node_id, start, end, performance=1.0, price=price))
            else:
                length = float(rng.uniform(1.0, 8.0))
                slots.append(
                    make_slot(node_id, start, start + length, performance=1e6,
                              price=float(rng.choice([1e-3, 1.0])))
                )
        pool = SlotPool.from_slots(slots)
        for node_count in (1, 2, 3):
            for budget in (None, 0.02, 5.0):
                request = ResourceRequest(
                    node_count=node_count, reservation_time=runtime, budget=budget
                )
                found = sweep_csa("cheapest").find_alternatives(request, pool)
                expected = self.generic_procedure(request, pool)
                assert found == expected, (node_count, budget)
                assert same_windows(found, expected)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_disputed_slot_in_no_window(self, policy):
        # A partner already waiting at the disputed slot's own start does
        # not complete a window there: the slot is no candidate.  (It
        # once did, alive at its own step only.)
        slots = [
            make_slot(1, 0.0, 1e7, performance=1.0, price=1e-6),
            make_slot(0, self.START, self.END, performance=1.0, price=1e-6),
        ]
        pool = SlotPool.from_slots(slots)
        request = ResourceRequest(node_count=2, reservation_time=self.RUNTIME)
        found = sweep_csa(policy).find_alternatives(request, pool)
        assert found == procedure(request, pool, policy=policy) == []
        assert self.generic_procedure(request, pool, policy) == []


@ADVERSARIAL
@given(case=adversarial_cases())
@example(case=EXPIRED_ON_ARRIVAL)
@example(case=EDGE_OF_COMMIT)
def test_sweeps_equal_the_procedure_on_adversarial_pools(case):
    """Both consume sweeps, on pools whose slot ends sit where the float
    spellings of the fit test disagree, equal the AMP-and-cut procedure
    — on the kernel's AMP and on the generic loop's — and every window
    validates."""
    request = case.request
    for policy in POLICIES:
        for cap in (None, 1):
            found = sweep_csa(policy).find_alternatives(request, case.pool(), limit=cap)
            assert_identical(found, procedure(request, case.pool(), cap, policy))
            generic = TestCandidateExpiredOnArrival.generic_procedure(
                request, case.pool(), policy, cap
            )
            assert found == generic
            for window in found:
                window.validate(request)


@contextmanager
def carved_hosts():
    """Every ``(host, leg slot)`` pair ``SlotPool.commit_window`` cuts
    while the block runs, in cutting order (a host is the slot whose
    :meth:`Slot.split` the commit calls)."""
    pairs = []
    split, commit = Slot.split, SlotPool.commit_window
    hosts = []

    def recording_split(host, start, required_time):
        hosts.append(host)
        return split(host, start, required_time)

    def recording_commit(pool, window):
        hosts.clear()
        commit(pool, window)
        pairs.extend(zip(hosts, [leg.slot for leg in window.slots], strict=True))

    Slot.split, SlotPool.commit_window = recording_split, recording_commit
    try:
        yield pairs
    finally:
        Slot.split, SlotPool.commit_window = split, commit


def assert_split_cuts_each_legs_slot(request, pool, policy, cap=None):
    """The oracle of ``split`` cutting: in ``rerun_alternatives``, the
    host ``commit_window`` finds for each leg of a window just searched
    on the working copy is the leg's own slot."""
    with carved_hosts() as pairs:
        found = procedure(request, pool, cap, policy, mode="split")
    assert len(pairs) == sum(len(window.slots) for window in found)
    assert all(host is slot for host, slot in pairs)
    return found


class TestSplitCutsTheLegsOwnSlot:
    @pytest.mark.parametrize("seed", [3, 2013])
    def test_generated_environment(self, seed):
        pool = EnvironmentGenerator(
            EnvironmentConfig(node_count=40, seed=seed)
        ).generate().slot_pool()
        for node_count, budget in [(2, None), (3, 600.0), (6, None)]:
            request = ResourceRequest(
                node_count=node_count, reservation_time=60.0, budget=budget
            )
            for policy in POLICIES:
                found = assert_split_cuts_each_legs_slot(request, pool, policy)
                assert len(found) > 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fragmented_pools(self, seed):
        request = ResourceRequest(node_count=3, reservation_time=30.0)
        for policy in POLICIES:
            assert assert_split_cuts_each_legs_slot(request, fragmented_pool(seed), policy)

    def test_the_recorder_sees_a_relocated_host(self):
        """A window searched on an earlier state of the pool is cut
        from a remainder: the recorder reports that host."""
        slot = make_slot(0, 0.0, 100.0, performance=4.0)
        pool = SlotPool.from_slots([slot])
        request = ResourceRequest(node_count=1, reservation_time=20.0)
        [_, second] = procedure(request, pool, cap=2, mode="split")
        with carved_hosts() as pairs:
            pool.commit_window(second)
        assert pairs == [(slot, second.slots[0].slot)]
        assert pairs[0][1] is not slot


@ADVERSARIAL
@given(case=adversarial_cases())
@example(case=EXPIRED_ON_ARRIVAL)
@example(case=EDGE_OF_COMMIT)
def test_split_cuts_the_legs_own_slot_on_adversarial_pools(case):
    # Capped: a fast partner's leg is a sliver of its slot, so split
    # cutting finds alternatives there almost without end.
    for policy in POLICIES:
        assert_split_cuts_each_legs_slot(case.request, case.pool(), policy, cap=12)


class TestDoomedCheapestSweep:
    """The cheapest sweep returns at once when the plan's n cheapest cost
    ranks already bust the budget — and only then."""

    # Costs 6.5, 3.5, 14.5, 5.5, 9.0 (task(20) runs 5 on the default node).
    PRICES = [1.3, 0.7, 2.9, 1.1, 1.8]
    REQUEST = ResourceRequest(node_count=3, reservation_time=20.0)

    def plan(self):
        slots = [
            make_slot(node_id, float(node_id), 100.0, price=price)
            for node_id, price in enumerate(self.PRICES)
        ]
        arrays, _ = vectorized._resolve_arrays(SlotPool.from_slots(slots))
        plan = vectorized._plan_for(arrays, self.REQUEST)
        cheapest = 0.0
        for cost in plan.cost_by_crank[:3]:
            cheapest += cost
        return plan, cheapest

    def test_budget_at_exactly_the_n_cheapest_sum_still_hits(self):
        plan, cheapest = self.plan()
        # The three cheapest (nodes 1, 3, 0) are all alive from start 3.
        hits = vectorized._run_cheapest_consume(plan, 3, cheapest, None)
        assert [start for start, _ in hits] == [3.0]
        below = np.nextafter(cheapest, -np.inf)
        assert vectorized._run_cheapest_consume(plan, 3, below, None) == []

    def test_fewer_candidates_than_nodes_hit_nothing(self):
        plan, _ = self.plan()
        assert vectorized._run_cheapest_consume(plan, 6, float("inf"), None) == []

    REQUEST_DOOMED = ResourceRequest(node_count=3, reservation_time=20.0, budget=15.0)

    def slots(self):
        return [
            make_slot(node_id, float(node_id), 100.0, price=price)
            for node_id, price in enumerate(self.PRICES)
        ]

    def test_doomed_request_still_counts_one_sweep_and_one_plan(self):
        request = self.REQUEST_DOOMED
        # The reference runs on a pool of its own: its working copy
        # shares the snapshot of the pool it copies, so on ``pool`` it
        # would build the plan counted below (see the next test).
        assert procedure(request, SlotPool.from_slots(self.slots())) == []
        pool = SlotPool.from_slots(self.slots())
        before = counters()
        assert sweep_csa().find_alternatives(request, pool) == []
        assert counter_delta(before) == {"vectorized": 1, "plans_built": 1}
        # The zero is recorded on the pool: the repeat reads no snapshot,
        # no plan, and is no scan.
        before = counters()
        assert sweep_csa().find_alternatives(request, pool) == []
        assert counter_delta(before) == {"certified": 1}

    def test_a_copy_shares_the_snapshot_and_its_plans(self):
        """``SlotPool.copy()`` hands its twin the pool's own snapshot, so
        the plan the procedure's AMP builds on the twin serves the pool."""
        request = self.REQUEST_DOOMED
        pool = SlotPool.from_slots(self.slots())
        before = counters()
        assert procedure(request, pool) == []
        assert counter_delta(before) == {"vectorized": 1, "plans_built": 1}
        before = counters()
        assert sweep_csa().find_alternatives(request, pool) == []
        assert counter_delta(before) == {"vectorized": 1, "plans_reused": 1}


class TestRankBound:
    """The cheapest sweep's survivor prefix: a rank whose ``head + cost``
    equals the budget is kept, one float step above it is pruned."""

    # Exact binary floats, ascending by rank.
    COSTS = [0.5, 1.0, 1.5, 4.0, 6.5]

    def test_rank_at_exactly_the_budget_is_kept(self):
        # n = 3: head = 0.5 + 1.0 = 1.5, and 1.5 + 4.0 is the budget.
        assert vectorized._rank_bound(self.COSTS, 3, 5.5) == 4
        assert vectorized._rank_bound(self.COSTS, 3, math.nextafter(5.5, 0.0)) == 3
        above = self.COSTS[:3] + [math.nextafter(4.0, math.inf), 6.5]
        assert 1.5 + above[3] > 5.5
        assert vectorized._rank_bound(above, 3, 5.5) == 3

    def test_single_node_keeps_every_affordable_rank(self):
        assert vectorized._rank_bound(self.COSTS, 1, 1.5) == 3
        assert vectorized._rank_bound(self.COSTS, 1, math.nextafter(0.5, 0.0)) == 0
        assert vectorized._rank_bound(self.COSTS, 1, float("inf")) == 5

    def test_bound_below_n_is_the_sweep_that_cannot_hit(self):
        # The three cheapest sum to 3.0: any less and rank 2 is pruned.
        assert vectorized._rank_bound(self.COSTS, 3, 3.0) == 3
        assert vectorized._rank_bound(self.COSTS, 3, math.nextafter(3.0, 0.0)) == 2

    @pytest.mark.parametrize("padding, regime", [(6, "walk"), (1, "inline")])
    def test_window_completed_by_the_boundary_rank(self, monkeypatch, padding, regime):
        # Costs 2.5 then 7.5 (task(20) runs 5 on the default node), then
        # ``padding`` slots at 47.5 that no window can afford: the only
        # window is the first two, summing to exactly the budget.
        slots = [
            make_slot(0, 0.0, 100.0, price=0.5),
            make_slot(1, 1.0, 100.0, price=1.5),
        ]
        slots += [
            make_slot(2 + index, 2.0 + index, 100.0, price=9.5)
            for index in range(padding)
        ]
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=10.0)
        arrays, _ = vectorized._resolve_arrays(SlotPool.from_slots(slots))
        plan = vectorized._plan_for(arrays, request)
        regimes = sweep_regimes(monkeypatch)
        hits = vectorized._run_cheapest_consume(plan, 2, 10.0, None)
        assert [(start, sorted(cands)) for start, cands in hits] == [(1.0, [0, 1])]
        assert regimes == {regime: 1}
        below = math.nextafter(10.0, 0.0)
        assert vectorized._run_cheapest_consume(plan, 2, below, None) == []
        pool = SlotPool.from_slots(slots)
        found = sweep_csa().find_alternatives(request, pool)
        assert_identical(found, procedure(request, pool))
        assert [window.nodes() for window in found] == [[0, 1]]


class TestEvictionPolicyHandBuiltPools:
    """What the checkpointed restart of the first-policy sweep must get
    right (task(20) on the default node runs 5 and costs 5 x price)."""

    @staticmethod
    def check(slots, request, expected_starts, expected_nodes):
        found = TestHandBuiltPools.check(slots, request, expected_starts, "first")
        assert [window.nodes() for window in found] == expected_nodes

    def test_evicted_leg_survives_once_its_evictor_is_consumed(self):
        # Node 0 is evicted only because node 1 fills the forming window
        # (27.5 > 26).  With node 1 consumed by the first window the
        # re-run keeps node 0 waiting and pairs it with node 3 — a sweep
        # that just carried on after the first hit has forgotten node 0.
        slots = [
            make_slot(0, 0.0, 100.0, price=3.0),  # costs 15
            make_slot(1, 1.0, 100.0, price=2.5),  # costs 12.5
            make_slot(2, 2.0, 100.0),  # costs 10
            make_slot(3, 3.0, 100.0),
        ]
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=26.0)
        self.check(slots, request, [2.0, 3.0], [[1, 2], [0, 3]])

    def test_equal_cost_tie_evicts_the_longest_waiting_leg(self):
        slots = [
            make_slot(0, 0.0, 100.0, price=5.0),  # costs 25
            make_slot(1, 1.0, 100.0, price=5.0),  # costs 25
            make_slot(2, 2.0, 100.0, price=1.0),  # costs 5
            make_slot(3, 3.0, 100.0, price=1.0),
        ]
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=35.0)
        self.check(slots, request, [2.0, 3.0], [[1, 2], [0, 3]])

    def test_checkpoint_of_an_earlier_run_is_not_resumed_from(self):
        # Run 1 passes node 1's step with node 0 waiting and hits {0, 2};
        # run 2 passes it again with nothing waiting and hits {1, 3}.
        # Run 3 resumes at that step: from run 1's list it would pair
        # the consumed node 0 with node 4.
        slots = [
            make_slot(0, 0.0, 100.0, price=4.0),  # costs 20
            make_slot(1, 1.0, 100.0, price=5.0),  # costs 25
            make_slot(2, 2.0, 100.0, price=3.0),  # costs 15
            make_slot(3, 3.0, 100.0, price=1.0),  # costs 5
            make_slot(4, 4.0, 100.0),  # costs 10
        ]
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=36.0)
        self.check(slots, request, [2.0, 3.0], [[0, 2], [1, 3]])

    def test_waiting_leg_is_dropped_at_the_deadline_before_it_expires(self):
        # The slow node's slot stays open, but started at 50 its task
        # would end at 150.
        slots = [
            make_slot(0, 0.0, 1000.0, performance=1.0),
            make_slot(1, 50.0, 1000.0),
            make_slot(2, 60.0, 1000.0),
        ]
        request = ResourceRequest(
            node_count=2, reservation_time=100.0, deadline=110.0
        )
        self.check(slots, request, [60.0], [[1, 2]])


class TestSweepCounters:
    REQUEST = ResourceRequest(node_count=2, reservation_time=10.0)

    @pytest.fixture
    def copies(self, monkeypatch):
        """Spy on ``SlotPool.copy``: the list of pools copied."""
        calls = []
        original = SlotPool.copy

        def spy(pool):
            calls.append(pool)
            return original(pool)

        monkeypatch.setattr(SlotPool, "copy", spy)
        return calls

    def test_sweep_builds_one_plan_and_leaves_the_pool_alone(self, copies):
        pool = fragmented_pool(23)
        generation, size = pool.generation, len(pool)
        before = counters()
        found = sweep_csa().find_alternatives(self.REQUEST, pool)
        assert len(found) > 5
        assert counter_delta(before) == {"vectorized": 1, "plans_built": 1}
        assert copies == []
        assert (pool.generation, len(pool)) == (generation, size)
        # An unchanged pool serves the next call from the cached plan.
        before = counters()
        assert sweep_csa().find_alternatives(self.REQUEST, pool) == found
        assert counter_delta(before) == {"vectorized": 1, "plans_reused": 1}

    def test_unknown_policy_is_an_error_not_the_cheapest_kernel(self):
        with pytest.raises(ValueError, match="unknown AMP policy"):
            vectorized.vectorized_alternatives(
                self.REQUEST, fragmented_pool(23), None, "frist"
            )

    def test_first_policy_rides_the_sweep(self, copies):
        pool = fragmented_pool(23)
        expected = procedure(self.REQUEST, pool, policy="first")
        del copies[:]
        generation, size = pool.generation, len(pool)
        before = counters()
        found = CSA().find_alternatives(self.REQUEST, pool)  # the defaults
        assert len(found) > 5
        assert_identical(found, expected)
        assert counter_delta(before) == {"vectorized": 1, "plans_built": 1}
        assert copies == []
        assert (pool.generation, len(pool)) == (generation, size)
        # Both policies share the request's plan on an unchanged pool.
        before = counters()
        sweep_csa("cheapest").find_alternatives(self.REQUEST, pool)
        assert CSA().find_alternatives(self.REQUEST, pool) == found
        assert counter_delta(before) == {"vectorized": 2, "plans_reused": 2}

    def test_split_cutting_keeps_the_loop(self, copies):
        pool = fragmented_pool(23)
        expected = procedure(self.REQUEST, pool, mode="split")
        del copies[:]
        before = counters()
        found = CSA(amp_policy="cheapest", cut_mode="split").find_alternatives(
            self.REQUEST, pool
        )
        assert found == expected
        # One kernel dispatch per AMP run, the failing last one included.
        assert counter_delta(before)["vectorized"] == len(found) + 1
        assert copies == [pool]
        # The eviction scan is no AEP scan: its re-runs count nothing.
        expected = procedure(self.REQUEST, pool, policy="first", mode="split")
        del copies[:]
        before = counters()
        found = CSA(cut_mode="split").find_alternatives(self.REQUEST, pool)
        assert found == expected
        assert counter_delta(before) == {}
        assert copies == [pool]

    def test_unsorted_snapshot_falls_back_to_the_loop(self, copies):
        slots = fragmented_pool(23).ordered()
        expected = procedure(self.REQUEST, SlotPool.from_slots(slots))
        del copies[:]
        pool = SlotPool.from_slots(slots)
        pool.as_arrays()._plan_unsorted = True
        for policy in POLICIES:
            assert (
                vectorized.vectorized_alternatives(self.REQUEST, pool, None, policy)
                is vectorized.UNSUPPORTED
            )
        before = counters()
        found = sweep_csa().find_alternatives(self.REQUEST, pool)
        assert_identical(found, expected)
        assert copies == [pool]
        # The working copy shares the flagged snapshot until its first cut.
        assert counter_delta(before)["fallback"] == 1


def eviction_only(request, pool, cap=None):
    """The eviction sweep on the pool's plan without the pre-check."""
    arrays, slot_list = vectorized._resolve_arrays(pool)
    plan = vectorized._plan_for(arrays, request)
    budget = vectorized._budget_of(request)
    hits = vectorized._run_first_consume(plan, request.node_count, budget, cap)
    return [vectorized._window(plan, slot_list, start, cands) for start, cands in hits]


def plan_of(slots, request):
    arrays, _ = vectorized._resolve_arrays(SlotPool.from_slots(slots))
    return arrays, vectorized._plan_for(arrays, request)


class TestEvictionPreCheck:
    """The first policy's pre-check: a cheapest sweep with a widened
    budget that finds nothing proves the eviction sweep finds nothing.
    Both keep a waiting leg by the same test, its last start against
    ``ws - eps``, so the budget is the only thing widened: on the time
    boundary the pre-check is exact, and on the budget boundary it says
    "search" where an unwidened cheapest sweep misses."""

    @staticmethod
    def boundary_end(window_start: float, runtime: float) -> float:
        """The least slot end ``e`` whose leg of ``runtime`` fits from
        ``window_start``: ``e - runtime >= window_start - eps``."""
        end = window_start + runtime
        while fits_from(last_start(end, runtime), window_start):
            end = math.nextafter(end, -math.inf)
        while not fits_from(last_start(end, runtime), window_start):
            end = math.nextafter(end, math.inf)
        return end

    @pytest.mark.parametrize("base", [0.0, 1e9], ids=["zero", "1e9"])
    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_waiting_leg_on_the_end_test(self, base, step):
        # task(20) runs 5 on the default node.  Node 0 waits from
        # ``base``; node 1 arrives at ``base + 64``, where the eviction
        # scan keeps node 0 iff ``end - 5 >= ws - eps``.
        request = ResourceRequest(node_count=2, reservation_time=20.0)
        window_start = base + 64.0
        end = self.boundary_end(window_start, 5.0)
        end = {-1: math.nextafter(end, -math.inf), 0: end, 1: math.nextafter(end, math.inf)}[step]
        slots = [make_slot(0, base, end), make_slot(1, window_start, base + 200.0)]
        pool = SlotPool.from_slots(slots)
        found = sweep_csa("first").find_alternatives(request, pool)
        assert_identical(found, procedure(request, pool, policy="first"))
        assert found == eviction_only(request, SlotPool.from_slots(slots))
        assert [window.start for window in found] == ([] if step < 0 else [window_start])
        # The pre-check reads the same keep test: exact on this boundary.
        arrays, plan = plan_of(slots, request)
        budget = vectorized._budget_of(request)
        assert vectorized._may_evict_hit(plan, 2, budget) == bool(found)

    def test_budget_between_the_waiting_order_and_the_ascending_sum(self):
        # task(4) runs 1 on the default node, so a leg costs its price.
        # In waiting (arrival) order the four costs sum, by ``sum()``
        # with or without compensation, one ulp below their ascending
        # float sum; a budget of exactly the waiting-order sum is a hit
        # for the eviction scan and a miss for an unwidened cheapest one.
        prices = [
            float.fromhex("0x1.0000000000003p-53"),
            float.fromhex("0x1.fffffffffffffp-1"),
            float.fromhex("0x1.0000000000006p-54"),
            float.fromhex("0x1.0000000000002p-1"),
        ]
        ascending = 0.0
        for price in sorted(prices):
            ascending += price
        budget = sum(prices)
        assert budget < ascending
        request = ResourceRequest(node_count=4, reservation_time=4.0)
        slots = [
            make_slot(node_id, float(node_id), 100.0, price=price)
            for node_id, price in enumerate(prices)
        ]
        arrays, plan = plan_of(slots, request)
        assert plan.cost_list == prices
        hits = vectorized._run_first_consume(plan, 4, budget, None)
        assert [(start, sorted(cands)) for start, cands in hits] == [(3.0, [0, 1, 2, 3])]
        assert vectorized._run_cheapest_consume(plan, 4, budget, None) == []
        assert vectorized._may_evict_hit(plan, 4, budget)

    def test_runtime_far_above_the_window_start(self):
        # A runtime of 1e7 (task(4e7) on the default node): one ulp of
        # ``1e7 - eps`` is about 1.86e-9, so ``fl(req - eps)`` falls a
        # whole ulp below ``req``.  Node 0's slot ends exactly there past
        # the window start 2**-20: ``end - ws >= req - eps`` holds, while
        # its last start lies 1.86e-9 before the window start, below
        # ``ws - eps``.  The eviction scan once kept it by the first test
        # (and the pre-check needed a margin scaled by the runtime); now
        # every search drops it by the second.
        request = ResourceRequest(node_count=2, reservation_time=4e7)
        runtime = 1e7
        window_start = 2.0**-20
        need = runtime - TIME_EPSILON
        assert need == math.nextafter(runtime, 0.0)
        end = window_start + need
        assert end - window_start == need
        assert not fits_from(last_start(end, runtime), window_start)
        slots = [make_slot(0, 0.0, end), make_slot(1, window_start, 3e7)]
        pool = SlotPool.from_slots(slots)
        found = sweep_csa("first").find_alternatives(request, pool)
        assert found == procedure(request, pool, policy="first") == []
        assert eviction_only(request, SlotPool.from_slots(slots)) == []
        arrays, plan = plan_of(slots, request)
        assert vectorized._run_cheapest_consume(plan, 2, math.inf, None) == []
        assert not vectorized._may_evict_hit(plan, 2, math.inf)

    @pytest.mark.parametrize("offset", [0.0, 1e9], ids=["zero", "1e9"])
    def test_random_pools_with_and_without_the_pre_check(self, offset):
        proven = 0
        for seed, node_count, (kind, share), deadline in itertools.product(
            SEEDS, NODE_COUNTS, BUDGETS.items(), [None, 70.0]
        ):
            pool = fragmented_pool(seed, offset=offset)
            request = ResourceRequest(
                node_count=node_count,
                reservation_time=10.0,
                budget=None if share is None else share * node_count,
                deadline=None if deadline is None else offset + deadline,
            )
            for cap in (1, None):
                found = sweep_csa("first").find_alternatives(request, pool, limit=cap)
                assert found == eviction_only(request, fragmented_pool(seed, offset=offset), cap)
            arrays, slot_list = vectorized._resolve_arrays(pool)
            plan = vectorized._plan_for(arrays, request)
            budget = vectorized._budget_of(request)
            if not vectorized._may_evict_hit(plan, node_count, budget):
                proven += 1
                assert found == []
        # The pre-check settles a share of the searches on its own.
        assert proven > 20
