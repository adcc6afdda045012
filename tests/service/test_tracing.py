"""The trace validator: conservation laws over recorded event streams."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import (
    CollectingSink,
    Event,
    EventType,
    JsonlSink,
    TraceConfig,
    TraceInvariantError,
    TraceValidator,
    deterministic_trace,
    load_trace,
    run_service_trace,
    validate_trace_file,
)


def make_events(*specs) -> list[Event]:
    """Build an event list from ``(type, time, job_id, fields)`` tuples."""
    events = []
    for seq, spec in enumerate(specs):
        event_type, time, job_id, fields = spec
        events.append(
            Event(seq=seq, type=event_type, time=time, job_id=job_id, fields=fields)
        )
    return events


def happy_path_events() -> list[Event]:
    """submit -> admit -> queue -> schedule -> retire, one clean job."""
    return make_events(
        (EventType.SUBMITTED, 0.0, "a", {}),
        (EventType.ADMITTED, 0.0, "a", {}),
        (EventType.QUEUED, 0.0, "a", {"deferrals": 0, "depth": 1}),
        (EventType.CYCLE_START, 1.0, None, {"cycle": 0}),
        (EventType.SCHEDULED, 1.0, "a", {"cycle": 0, "node_seconds": 40.0}),
        (EventType.CYCLE_END, 1.0, None, {"cycle": 0}),
        (EventType.RETIRED, 30.0, "a", {"released_node_seconds": 40.0}),
    )


class TestValidatorStateMachine:
    def test_happy_path_passes(self):
        validator = TraceValidator().observe_all(happy_path_events())
        validator.check(expect_drained=True)
        summary = validator.summary()
        assert summary["scheduled"] == summary["retired"] == 1
        assert summary["violations"] == 0

    def test_backwards_virtual_time_is_caught(self):
        events = make_events(
            (EventType.SUBMITTED, 5.0, "a", {}),
            (EventType.ADMITTED, 2.0, "a", {}),
        )
        validator = TraceValidator().observe_all(events)
        with pytest.raises(TraceInvariantError, match="ran backwards"):
            validator.check()

    def test_retire_without_schedule_is_caught(self):
        events = make_events(
            (EventType.RETIRED, 1.0, "ghost", {"released_node_seconds": 5.0}),
        )
        with pytest.raises(TraceInvariantError, match="illegal transition"):
            TraceValidator().observe_all(events).check()

    def test_released_exceeding_committed_is_caught(self):
        events = happy_path_events()[:-1] + make_events(
            (EventType.RETIRED, 30.0, "a", {"released_node_seconds": 45.0}),
        )
        with pytest.raises(TraceInvariantError, match="released 45.0"):
            TraceValidator().observe_all(events).check()

    def test_lost_job_breaks_conservation(self):
        # admitted and queued, then the trace simply ends: fine while the
        # service is live (still-pending), a violation once drained.
        events = happy_path_events()[:3]
        TraceValidator().observe_all(events).check(expect_drained=False)
        with pytest.raises(TraceInvariantError, match="still pending"):
            TraceValidator().observe_all(events).check(expect_drained=True)

    def test_double_terminal_state_is_caught(self):
        events = happy_path_events() + make_events(
            (EventType.DROPPED, 31.0, "a", {"cause": "max_deferrals"}),
        )
        with pytest.raises(TraceInvariantError, match="illegal transition"):
            TraceValidator().observe_all(events).check()

    def test_unbalanced_cycle_markers_are_caught(self):
        events = make_events((EventType.CYCLE_START, 0.0, None, {"cycle": 0}))
        with pytest.raises(TraceInvariantError, match="never ended"):
            TraceValidator().observe_all(events).check()

    def test_all_violations_reported_in_one_pass(self):
        events = make_events(
            (EventType.SUBMITTED, 5.0, "a", {}),
            (EventType.ADMITTED, 1.0, "a", {}),  # time backwards
            (EventType.RETIRED, 6.0, "b", {"released_node_seconds": 1.0}),
        )
        validator = TraceValidator().observe_all(events)
        with pytest.raises(TraceInvariantError) as excinfo:
            validator.check()
        message = str(excinfo.value)
        assert "ran backwards" in message
        assert "illegal transition" in message


class TestEndToEndConservation:
    """The seeded-Poisson conservation suite over the live broker."""

    @pytest.mark.parametrize("seed", [3, 7, 11, 2013])
    def test_seeded_trace_conserves_jobs_and_node_seconds(self, seed):
        outcome = run_service_trace(
            TraceConfig(
                jobs=80,
                rate=2.0,
                node_count=30,
                seed=seed,
                validate_trace=True,
            )
        )
        stats = outcome.service.stats
        # drained: nothing pending, everything scheduled came back
        assert stats.admitted == stats.scheduled + stats.dropped
        assert outcome.service.queue_depth == 0
        assert stats.scheduled == stats.retired
        validator = outcome.validator
        assert validator is not None
        summary = validator.summary()
        assert summary["admitted"] == stats.admitted
        assert summary["scheduled"] == stats.scheduled
        assert summary["dropped"] == stats.dropped
        assert summary["retired"] == stats.retired
        # full reservations released: committed == released node-seconds
        assert validator.released_node_seconds == pytest.approx(
            validator.committed_node_seconds
        )

    def test_validator_accounts_undrained_queue_as_pending(self):
        from repro.service import BrokerService, build_service

        config = TraceConfig(jobs=0, node_count=25, seed=2)
        collector = CollectingSink()
        validator = TraceValidator()
        service = build_service(config, sinks=[collector, validator])
        assert isinstance(service, BrokerService)
        from repro.model import Job, ResourceRequest

        for index in range(3):
            service.submit(
                Job(
                    f"j{index}",
                    ResourceRequest(
                        node_count=2, reservation_time=20.0, budget=2000.0
                    ),
                )
            )
        # three admitted jobs sit in the queue; conservation holds with
        # them counted as still-pending, and fails if a drain is claimed
        validator.check(expect_drained=False)
        assert validator.pending_jobs == {"j0", "j1", "j2"}
        with pytest.raises(TraceInvariantError):
            validator.check(expect_drained=True)

    def test_jsonl_file_round_trip_validates(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        run_service_trace(
            TraceConfig(jobs=40, node_count=25, seed=5, trace_path=path)
        )
        validator = validate_trace_file(path, expect_drained=True)
        assert validator.summary()["violations"] == 0
        assert validator.events_seen == len(load_trace(path))


class TestRunToRunInvariance:
    """Same seed, any run and any hash seed: identical traces modulo
    wall-clock fields."""

    def serve_trace(self, path: Path, hash_seed: str):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        repo_src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "serve", "--jobs", "40",
                "--nodes", "25", "--seed", "9", "--trace", str(path), "--json",
            ],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        return deterministic_trace(load_trace(str(path)))

    def test_traces_identical_across_hash_seeds(self, tmp_path):
        # Set and dict iteration order must never reach a decision.
        first = self.serve_trace(tmp_path / "h0.jsonl", "0")
        second = self.serve_trace(tmp_path / "h1.jsonl", "1")
        assert first
        assert first == second

    def test_jsonl_bytes_identical_modulo_wall_clock(self, tmp_path):
        paths = [tmp_path / f"run{run}.jsonl" for run in range(2)]
        for path in paths:
            run_service_trace(
                TraceConfig(jobs=50, node_count=25, seed=9, trace_path=str(path))
            )
        first, second = (
            [event.deterministic_dict() for event in load_trace(str(path))]
            for path in paths
        )
        assert first == second


class TestJsonlFailureArtifact:
    def test_trace_file_is_complete_when_validation_fails(self, tmp_path):
        # a validator attached behind a JSONL sink: when check() raises,
        # the JSONL on disk must already be flushed (the CI artifact)
        path = str(tmp_path / "bad.jsonl")
        with JsonlSink(path) as sink:
            for event in happy_path_events()[:3]:
                sink.emit(event)
        with pytest.raises(TraceInvariantError):
            validate_trace_file(path, expect_drained=True)
        assert len(load_trace(path)) == 3
