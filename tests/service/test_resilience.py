"""The live resilience layer: injection, recovery policies, broker wiring.

Three levels of granularity:

* unit — config validation, injector stream discipline, policy decision
  tables (pure deciders on hand-built contexts);
* manager — a real broker, one scheduled job, one hand-crafted
  preemption applied directly, with the pool/lifecycle/queue/stats
  effects asserted exactly;
* end-to-end — scripted runs per policy with the trace validator riding
  along (conservation laws, repaired-window invariants), plus the
  strict-no-op guarantee: a rate-0 resilience layer leaves the
  deterministic trace view byte-identical to a broker without one.
"""

from __future__ import annotations

import pytest

from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.execution import PAPER_DISTURBANCE_RATE, PoissonDisturbances
from repro.model import Job, ResourceRequest, SlotPool, Window, WindowSlot
from repro.model.errors import ConfigurationError
from repro.service import (
    AbandonPolicy,
    BrokerService,
    NodePreemption,
    RepairPolicy,
    ReplanPolicy,
    ResilienceConfig,
    RevocationContext,
    RevocationInjector,
    ServiceConfig,
    TraceConfig,
    deterministic_trace,
    load_trace,
    run_service_trace,
)
from repro.service.resilience.manager import ResilienceManager
from repro.service.resilience.policies import (
    AbandonAction,
    RepairAction,
    ReplanAction,
)

from tests.conftest import make_slot


def make_pool(node_count: int = 40, seed: int = 11) -> SlotPool:
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=node_count, seed=seed)
    ).generate()
    return environment.slot_pool()


def make_job(job_id: str = "j0", nodes: int = 2, budget: float = 2000.0) -> Job:
    return Job(
        job_id,
        ResourceRequest(node_count=nodes, reservation_time=20.0, budget=budget),
    )


def resilient_config(policy: str, rate: float = 0.0, **kwargs) -> ServiceConfig:
    return ServiceConfig(
        batch_size=1,
        record_assignments=True,
        resilience=ResilienceConfig(rate=rate, policy=policy, **kwargs),
    )


def first_hit(window: Window, length: float = 5.0) -> NodePreemption:
    """A local job trampling the window's first leg from its start."""
    leg = window.slots[0]
    return NodePreemption(
        node_id=leg.slot.node.node_id, arrival=window.start, length=length
    )


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestResilienceConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -0.1},
            {"length_range": (0.0, 10.0)},
            {"length_range": (10.0, 5.0)},
            {"policy": "pray"},
            {"max_retries": -1},
            {"backoff_base": 0.0},
            {"backoff_factor": 0.5},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)

    def test_build_policy_matches_the_name(self):
        assert isinstance(ResilienceConfig(policy="repair").build_policy(), RepairPolicy)
        built = ResilienceConfig(policy="replan", max_retries=7).build_policy()
        assert isinstance(built, ReplanPolicy) and not isinstance(built, RepairPolicy)
        assert built.max_retries == 7
        assert isinstance(ResilienceConfig(policy="abandon").build_policy(), AbandonPolicy)


# ----------------------------------------------------------------------
# Injector stream discipline
# ----------------------------------------------------------------------
MODEL = PoissonDisturbances(rate=0.05, length_range=(5.0, 15.0))


class TestRevocationInjector:
    def test_same_seed_same_intervals_same_hits(self):
        a = RevocationInjector(MODEL, seed=42)
        b = RevocationInjector(MODEL, seed=42)
        for interval in [(0.0, 40.0), (40.0, 90.0)]:
            assert a.sample_interval(*interval, [3, 1, 2]) == b.sample_interval(
                *interval, [1, 2, 3]
            )

    def test_hits_are_ordered_and_inside_the_interval(self):
        hits = RevocationInjector(MODEL, seed=1).sample_interval(10.0, 60.0, range(8))
        assert hits, "rate 0.05 over 8 nodes x 50 units should land arrivals"
        assert hits == sorted(hits, key=lambda h: (h.arrival, h.node_id))
        for hit in hits:
            assert 10.0 <= hit.arrival < 60.0
            assert hit.busy_end == hit.arrival + hit.length

    def test_empty_samples_consume_no_spawned_child(self):
        """Provably-empty calls must not shift the stream (strict no-op)."""
        plain = RevocationInjector(MODEL, seed=7)
        padded = RevocationInjector(MODEL, seed=7)
        assert padded.sample_interval(0.0, 10.0, []) == []  # no nodes
        assert padded.sample_interval(5.0, 5.0, [1, 2]) == []  # empty interval
        zero = RevocationInjector(PoissonDisturbances(rate=0.0), seed=7)
        assert zero.sample_interval(0.0, 100.0, [1, 2]) == []  # rate 0
        assert plain.sample_interval(0.0, 50.0, [1, 2, 3]) == padded.sample_interval(
            0.0, 50.0, [1, 2, 3]
        )


# ----------------------------------------------------------------------
# Policy decision tables
# ----------------------------------------------------------------------
def make_context(
    *,
    now: float = 0.0,
    retries: int = 0,
    deadline: float | None = None,
    budget: float = 1000.0,
    pool: SlotPool | None = None,
    start: float = 10.0,
) -> RevocationContext:
    request = ResourceRequest(
        node_count=2, reservation_time=20.0, budget=budget, deadline=deadline
    )
    job = Job("ctx", request)
    legs = tuple(
        WindowSlot.for_request(make_slot(node_id, 0.0, 100.0), request)
        for node_id in (1, 2)
    )
    window = Window(start=start, slots=legs)
    return RevocationContext(
        job=job,
        window=window,
        revoked=legs[:1],
        surviving=legs[1:],
        now=now,
        retries=retries,
        pool=pool if pool is not None else SlotPool(),
    )


class TestPolicies:
    def test_abandon_policy_is_terminal(self):
        action = AbandonPolicy().decide(make_context())
        assert isinstance(action, AbandonAction)
        assert action.cause == "policy_abandon"

    def test_replan_backoff_is_exponential_in_the_retry_count(self):
        policy = ReplanPolicy(max_retries=5, backoff_base=5.0, backoff_factor=2.0)
        for retries, expected in [(0, 5.0), (1, 10.0), (2, 20.0)]:
            action = policy.decide(make_context(now=100.0, retries=retries))
            assert isinstance(action, ReplanAction)
            assert action.ready_at == pytest.approx(100.0 + expected)

    def test_replan_abandons_at_the_retry_bound(self):
        action = ReplanPolicy(max_retries=2).decide(make_context(retries=2))
        assert isinstance(action, AbandonAction)
        assert action.cause == "max_retries"

    def test_replan_is_deadline_aware(self):
        # ready_at = 100 + 5 crosses a deadline of 104: retrying is futile.
        action = ReplanPolicy(backoff_base=5.0).decide(
            make_context(now=100.0, deadline=104.0)
        )
        assert isinstance(action, AbandonAction)
        assert action.cause == "deadline"

    def test_repair_swaps_only_the_revoked_leg(self):
        pool = SlotPool.from_slots(
            [make_slot(3, 0.0, 100.0), make_slot(4, 0.0, 100.0, price=9.0)]
        )
        ctx = make_context(pool=pool)
        action = RepairPolicy().decide(ctx)
        assert isinstance(action, RepairAction)
        assert len(action.replacements) == 1
        # The cheapest substitute wins, and window nodes are excluded.
        assert action.replacements[0].slot.node.node_id == 3

    def test_repair_degrades_to_replan_once_the_window_started(self):
        pool = SlotPool.from_slots([make_slot(3, 0.0, 100.0)])
        action = RepairPolicy().decide(make_context(pool=pool, start=10.0, now=12.0))
        assert isinstance(action, ReplanAction)

    def test_repair_respects_the_remaining_budget(self):
        # Surviving leg already spent most of the budget; the only
        # substitute is too expensive, so the policy falls back.
        pool = SlotPool.from_slots([make_slot(3, 0.0, 100.0, price=50.0)])
        action = RepairPolicy().decide(make_context(pool=pool, budget=20.0))
        assert isinstance(action, ReplanAction)


# ----------------------------------------------------------------------
# Manager effects through a real broker
# ----------------------------------------------------------------------
def scheduled_service(policy: str, **kwargs) -> tuple[BrokerService, Window]:
    service = BrokerService(make_pool(), resilient_config(policy, **kwargs))
    assert service.submit(make_job())
    assert service.pump() == 1
    return service, service.assignments["j0"]


class TestManager:
    @pytest.mark.parametrize(
        "policy, outcome",
        [("repair", "repaired"), ("replan", "replanned"), ("abandon", "abandoned")],
    )
    def test_a_revocation_trims_nothing(self, policy, outcome, monkeypatch):
        """Recovery reads and releases through the floor; only the
        broker's cycle deletes what the floor killed."""
        service, window = scheduled_service(policy)
        # The clock step that samples a hit raises the floor first.
        service.pool.advance_floor(service.now)
        trims = []
        trim = SlotPool.trim_before

        def counted(pool, time):
            trims.append(time)
            return trim(pool, time)

        monkeypatch.setattr(SlotPool, "trim_before", counted)
        service.resilience.apply(first_hit(window), service.now)
        assert getattr(service.stats, outcome) == 1
        assert trims == []

    def test_repair_keeps_start_and_distinct_nodes(self):
        service, window = scheduled_service("repair")
        hit = first_hit(window)
        service.resilience.apply(hit, service.now)

        assert service.stats.revocations == 1
        assert service.stats.repaired == 1
        assert service.active_count == 1
        repaired = service.assignments["j0"]
        assert repaired.start == window.start
        nodes = repaired.nodes()
        assert len(set(nodes)) == len(nodes)
        assert hit.node_id not in nodes
        assert service.stats.forfeited_node_seconds == pytest.approx(
            window.slots[0].required_time
        )
        service.pool.assert_disjoint_per_node()

        service.drain()
        assert service.stats.retired == 1

    def test_replan_buffers_the_retry_and_reschedules_it(self):
        service, window = scheduled_service(
            "replan", backoff_base=5.0, backoff_factor=2.0
        )
        service.resilience.apply(first_hit(window), service.now)

        assert service.stats.replanned == 1
        assert service.active_count == 0
        assert "j0" not in service.assignments
        assert service.resilience.pending_retries == 1
        assert service.resilience.next_wakeup() == pytest.approx(5.0)
        # The surviving leg went back to the pool; the revoked one did not.
        service.pool.assert_disjoint_per_node()

        # While buffered, the job id is still "known": no duplicate entry.
        assert not service.submit(make_job("j0"))

        service.advance_to(6.0)
        assert service.resilience.pending_retries == 0
        assert service.stats.scheduled == 2
        assert service.stats.retried == 1
        service.drain()
        assert service.stats.retired == 1

    def test_abandon_releases_survivors_and_seals_the_job(self):
        service, window = scheduled_service("abandon")
        free_before = sum(slot.length for slot in service.pool)
        service.resilience.apply(first_hit(window), service.now)

        assert service.stats.abandoned == 1
        assert service.active_count == 0
        assert service.resilience.pending_retries == 0
        surviving_seconds = sum(
            leg.required_time for leg in window.slots[1:]
        )
        free_after = sum(slot.length for slot in service.pool)
        assert free_after - free_before == pytest.approx(surviving_seconds)
        # The job's fate is sealed: its id may be submitted afresh.
        assert service.submit(make_job("j0"))
        service.drain()

    def test_max_retries_exhaustion_abandons(self):
        service, window = scheduled_service("replan", max_retries=0)
        service.resilience.apply(first_hit(window), service.now)
        assert service.stats.replanned == 0
        assert service.stats.abandoned == 1


# ----------------------------------------------------------------------
# End-to-end scripted runs
# ----------------------------------------------------------------------
def traced_run(tmp_path, name: str, resilience: ResilienceConfig | None):
    path = str(tmp_path / f"{name}.jsonl")
    outcome = run_service_trace(
        TraceConfig(
            jobs=30,
            node_count=30,
            seed=3,
            service=ServiceConfig(resilience=resilience),
            trace_path=path,
            validate_trace=True,
        )
    )
    return outcome, load_trace(path)


class TestEndToEnd:
    def test_rate_zero_is_a_strict_noop(self, tmp_path):
        bare, bare_trace = traced_run(tmp_path, "bare", None)
        wired, wired_trace = traced_run(
            tmp_path, "wired", ResilienceConfig(rate=0.0, policy="repair")
        )
        assert deterministic_trace(wired_trace) == deterministic_trace(bare_trace)
        assert wired.service.stats.revocations == 0
        assert wired.final_virtual_time == bare.final_virtual_time

    @pytest.mark.parametrize("policy", ["repair", "replan", "abandon"])
    def test_disturbed_runs_drain_and_balance(self, tmp_path, policy):
        """The validator (riding the run) enforces the conservation laws
        and the repaired-window invariants; here we make sure the run
        actually exercised the policy under test."""
        outcome, _ = traced_run(
            tmp_path,
            policy,
            ResilienceConfig(rate=0.01, seed=5, policy=policy),
        )
        stats = outcome.service.stats
        assert stats.revocations > 0
        if policy == "repair":
            assert stats.repaired > 0
        elif policy == "replan":
            assert stats.replanned > 0
        else:
            assert stats.abandoned == stats.revocations
        assert stats.delivered_node_seconds > 0
        assert outcome.validator.forfeited_node_seconds == pytest.approx(
            stats.forfeited_node_seconds
        )


class TestIndexedFaultPath:
    """The manager reads the lifecycle's node index: ``sample_interval``
    its node set, ``apply`` the hit node's windows.  A shadow recomputes
    both from every live entry, as the manager did before the index,
    on every call of a disturbed run."""

    @pytest.fixture
    def divergences(self, monkeypatch):
        found: list = []
        calls = {"sample": 0, "apply": 0}
        sample, apply = ResilienceManager.sample_interval, ResilienceManager.apply

        def shadow_sample(manager, start, end):
            calls["sample"] += 1
            lifecycle = manager._lifecycle
            nodes: set[int] = set()
            for entry in lifecycle.entries():
                nodes.update(entry.window.nodes())
            indexed = set(lifecycle.active_nodes())
            if indexed != nodes:
                found.append(("sample_interval", start, indexed, nodes))
            return sample(manager, start, end)

        def shadow_apply(manager, hit, now):
            calls["apply"] += 1
            lifecycle = manager._lifecycle
            on_node = [
                entry
                for entry in lifecycle.entries()
                if hit.node_id in entry.window.nodes()
            ]
            compromised = [
                entry for entry in lifecycle.entries() if manager._partition(entry, hit)[0]
            ]
            indexed = lifecycle.entries_on(hit.node_id)
            if indexed != on_node or [
                entry for entry in indexed if manager._partition(entry, hit)[0]
            ] != compromised:
                found.append(("apply", hit, indexed, on_node))
            return apply(manager, hit, now)

        monkeypatch.setattr(ResilienceManager, "sample_interval", shadow_sample)
        monkeypatch.setattr(ResilienceManager, "apply", shadow_apply)
        return found, calls

    @pytest.mark.parametrize("policy", ["repair", "replan"])
    def test_index_never_diverges_from_the_full_scan(self, tmp_path, divergences, policy):
        found, calls = divergences
        outcome, _ = traced_run(
            tmp_path, policy, ResilienceConfig(rate=0.01, seed=5, policy=policy)
        )
        stats = outcome.service.stats
        assert found == []
        # Not vacuous: the shadow saw every step and every hit, and the
        # index went through repairs or cancellations.
        assert calls["sample"] > 50 and calls["apply"] >= stats.revocations > 0
        assert (stats.repaired if policy == "repair" else stats.replanned) > 0


# ----------------------------------------------------------------------
# Goodput ordering
# ----------------------------------------------------------------------
def goodput(policy: str, rate: float) -> float:
    """Node-seconds delivered to retired jobs per unit of virtual time,
    over one validated run of 60 jobs on 40 nodes (seed 2013)."""
    outcome = run_service_trace(
        TraceConfig(
            jobs=60,
            node_count=40,
            seed=2013,
            service=ServiceConfig(
                check_invariants=False,
                record_assignments=False,
                resilience=ResilienceConfig(rate=rate, seed=97, policy=policy),
            ),
            validate_trace=True,
        )
    )
    return outcome.service.stats.delivered_node_seconds / outcome.service.now


class TestGoodputOrdering:
    def test_repair_beats_replan_at_the_paper_rate(self):
        # Both policies face the same job stream and the same fault
        # sequence; a repaired window keeps its start, a replanned one
        # pays the backoff and a fresh search.  Do not shrink the run:
        # at 30 jobs on 20 nodes the ordering inverts (2.50 vs 3.10).
        repair = goodput("repair", PAPER_DISTURBANCE_RATE)
        replan = goodput("replan", PAPER_DISTURBANCE_RATE)
        assert repair > replan > 0.0
