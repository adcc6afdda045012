"""``run_flow``: the cycle-driven job flow as a broker arrival stream."""

from __future__ import annotations

import pytest

from repro.core import Criterion
from repro.model.errors import ConfigurationError
from repro.service import (
    Event,
    EventType,
    ResilienceConfig,
    ServiceConfig,
    TraceInvariantError,
    load_trace,
    run_flow,
    validate_trace_file,
)
from repro.service.driver import summarize_flow


def decisions(summary) -> list[list[int]]:
    """Per cycle: batch, scheduled, deferred, dropped."""
    return [row[1:5] for row in summary.cycles]


class TestRunFlow:
    def test_seeded_decision_pin(self):
        summary = run_flow(6, 4, node_count=40, seed=11)
        assert decisions(summary) == [
            [4, 4, 0, 0],
            [4, 4, 0, 0],
            [4, 4, 0, 0],
            [4, 3, 1, 0],
            [5, 3, 2, 0],
            [6, 4, 2, 0],
            # the stream has ended; the drain settles the backlog
            [2, 0, 1, 1],
            [1, 0, 0, 1],
        ]
        assert (summary.scheduled_total, summary.dropped_total) == (22, 2)
        assert summary.rejected_total == 0
        assert summary.cost.mean == pytest.approx(703.0, abs=0.05)

    def test_same_seed_same_summary(self):
        assert run_flow(4, 3, node_count=30, seed=5) == run_flow(
            4, 3, node_count=30, seed=5
        )

    def test_one_cycle_per_tick_when_nothing_defers(self):
        summary = run_flow(4, 3, node_count=50, seed=7)
        assert [row[0] for row in summary.cycles] == [0, 1, 2, 3]
        assert summary.scheduled_total == 12
        assert summary.throughput == pytest.approx(3.0)
        assert summary.drop_rate == 0.0
        assert summary.service_fairness == pytest.approx(1.0)

    def test_every_job_is_resolved_under_scarcity(self):
        summary = run_flow(
            5, 5, node_count=12, seed=3, service=ServiceConfig(max_deferrals=1)
        )
        assert summary.dropped_total > 0 and summary.rejected_total > 0
        assert (
            summary.scheduled_total + summary.dropped_total + summary.rejected_total
            == 5 * 5
        )
        assert summary.cost.count == summary.scheduled_total
        assert summary.waiting_cycles.count == summary.scheduled_total
        # at least one job won its window only after a deferral
        assert 0.0 < summary.waiting_cycles.mean <= 1.0
        assert summary.drop_rate == pytest.approx(7 / 25)
        assert 0.0 < summary.service_fairness < 1.0

    def test_the_policy_is_the_service_criterion(self):
        cheapest, fastest = (
            run_flow(
                6, 4, node_count=40, seed=7, service=ServiceConfig(criterion=criterion)
            )
            for criterion in (Criterion.COST, Criterion.FINISH_TIME)
        )
        assert cheapest.cost.mean < fastest.cost.mean

    def test_churn_still_resolves_every_job(self, tmp_path):
        path = str(tmp_path / "churn.jsonl")
        summary = run_flow(
            6,
            4,
            node_count=40,
            seed=11,
            service=ServiceConfig(resilience=ResilienceConfig(rate=0.005, seed=3)),
            trace_path=path,
        )
        replay = validate_trace_file(path, expect_drained=True).summary()
        assert replay["revoked"] > 0 and replay["replanned"] > 0
        assert summary.scheduled_total == replay["retired"]
        assert (
            summary.scheduled_total + summary.dropped_total + summary.rejected_total
            == 6 * 4
        )

    def test_trace_file_is_the_stream_the_summary_was_folded_from(self, tmp_path):
        path = str(tmp_path / "flow.jsonl")
        summary = run_flow(3, 2, node_count=30, seed=4, trace_path=path)
        events = load_trace(path)
        owners = {
            event.job_id: "anyone"
            for event in events
            if event.type is EventType.SUBMITTED
        }
        assert decisions(summarize_flow(events, owners)) == decisions(summary)

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError, match="cycles"):
            run_flow(0, 3)
        with pytest.raises(ConfigurationError, match="arrivals"):
            run_flow(2, -1)

    def test_a_violated_invariant_raises(self, monkeypatch):
        from repro.service import BrokerService

        # A broker that never closes its cycles emits no CYCLE_END.
        monkeypatch.setattr(BrokerService, "_close_cycle", lambda self, cycle: None)
        with pytest.raises(TraceInvariantError, match="cycle"):
            run_flow(2, 2, node_count=30, seed=4)


class TestSummarizeFlow:
    """The fold on hand-written streams: the resilience events no
    undisturbed flow emits."""

    @staticmethod
    def stream(*records) -> list[Event]:
        return [
            Event(seq=seq, type=kind, time=0.0, job_id=job_id, fields=fields)
            for seq, (kind, job_id, fields) in enumerate(records)
        ]

    def test_repair_reprices_and_replan_hands_the_window_back(self):
        window = {"cycle": 0, "cost": 100.0, "window_finish": 40.0}
        events = self.stream(
            (EventType.CYCLE_START, None, {"cycle": 0}),
            (EventType.SCHEDULED, "a", window),
            (EventType.SCHEDULED, "b", window),
            (EventType.CYCLE_END, None, {"cycle": 0, "batch": 2, "scheduled": 2}),
            (EventType.REPAIRED, "a", {"cost": 130.0}),
            (EventType.REPLANNED, "b", {}),
            (EventType.CYCLE_START, None, {"cycle": 1}),
            (EventType.SCHEDULED, "b", {**window, "cycle": 1, "cost": 90.0}),
            (EventType.CYCLE_END, None, {"cycle": 1, "batch": 1, "scheduled": 1}),
        )
        summary = summarize_flow(events, {"a": "alice", "b": "bob"})
        assert summary.cycles == [
            [0, 2, 2, 0, 0, 200.0, 40.0],
            [1, 1, 1, 0, 0, 90.0, 40.0],
        ]
        assert summary.scheduled_total == 2
        assert summary.cost.mean == pytest.approx((130.0 + 90.0) / 2)
        assert summary.service_fairness == 1.0  # both owners fully served

    def test_abandoned_counts_as_dropped(self):
        events = self.stream(
            (EventType.CYCLE_START, None, {"cycle": 0}),
            (EventType.SCHEDULED, "a", {"cycle": 0, "cost": 50.0, "window_finish": 9.0}),
            (EventType.CYCLE_END, None, {"cycle": 0, "batch": 1, "scheduled": 1}),
            (EventType.ABANDONED, "a", {"cause": "max_retries"}),
        )
        summary = summarize_flow(events, {"a": "alice"})
        assert (summary.scheduled_total, summary.dropped_total) == (0, 1)
        assert summary.drop_rate == 1.0
        assert summary.cost.count == 0
