"""The scripted-trace driver, arrival streaming, and the service CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.model.errors import ConfigurationError
from repro.service import TraceConfig, run_service_trace
from repro.simulation.jobgen import JobGenerator


class TestIterArrivals:
    def test_times_strictly_increase(self):
        generator = JobGenerator(seed=9)
        times = [t for t, _ in generator.iter_arrivals(20, rate=2.0)]
        assert len(times) == 20
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_seeded_streams_are_reproducible(self):
        first = [
            (t, job.job_id)
            for t, job in JobGenerator(seed=4).iter_arrivals(10, rate=1.0)
        ]
        second = [
            (t, job.job_id)
            for t, job in JobGenerator(seed=4).iter_arrivals(10, rate=1.0)
        ]
        assert first == second

    def test_invalid_parameters(self):
        generator = JobGenerator(seed=1)
        with pytest.raises(ConfigurationError):
            list(generator.iter_arrivals(-1))
        with pytest.raises(ConfigurationError):
            list(generator.iter_arrivals(1, rate=0.0))


class TestDriver:
    def test_trace_config_validation(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(jobs=-1)
        with pytest.raises(ConfigurationError):
            TraceConfig(rate=0.0)
        with pytest.raises(ConfigurationError):
            TraceConfig(node_count=0)

    def test_run_service_trace_snapshot(self):
        outcome = run_service_trace(TraceConfig(jobs=15, node_count=25, seed=2))
        payload = outcome.snapshot()
        assert payload["submitted"] == 15
        assert payload["final_virtual_time"] == round(outcome.final_virtual_time, 1)
        assert "cycle_latency_ms" in payload

    def test_run_service_trace_with_tracing(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        outcome = run_service_trace(
            TraceConfig(
                jobs=20, node_count=25, seed=2, trace_path=path,
                validate_trace=True,
            )
        )
        assert outcome.validator is not None
        payload = outcome.snapshot()
        assert payload["trace"]["violations"] == 0
        assert payload["trace"]["submitted"] == 20
        assert payload["scheduled_per_second"] <= payload["jobs_per_second"]
        from repro.service import load_trace

        assert len(load_trace(path)) == payload["trace"]["events"]


class TestServiceCli:
    def test_serve_runs(self, capsys):
        code = main(["serve", "--jobs", "12", "--nodes", "25", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "submitted 12" in out
        assert "cycles" in out

    def test_serve_json(self, capsys):
        code = main(
            ["serve", "--jobs", "8", "--nodes", "25", "--seed", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["submitted"] == 8

    def test_serve_trace_and_validation(self, tmp_path, capsys):
        path = str(tmp_path / "serve.jsonl")
        code = main(
            [
                "serve", "--jobs", "15", "--nodes", "25", "--seed", "3",
                "--trace", path, "--validate-trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace invariants OK" in out
        from repro.service import validate_trace_file

        validate_trace_file(path, expect_drained=True)

    def test_serve_options(self, capsys):
        code = main(
            [
                "serve", "--jobs", "10", "--nodes", "25", "--seed", "3",
                "--batch-size", "4", "--max-wait", "15",
                "--criterion", "cost", "--completion-factor", "0.8",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("command", ["serve", "serve-federation"])
    def test_serve_has_no_workers_option(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_schedule_json_output(self, capsys):
        code = main(
            ["schedule", "--nodes", "30", "--seed", "5", "--jobs", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == 3
        assert set(payload) == {"jobs", "summary", "assignments", "unscheduled"}
        for window in payload["assignments"].values():
            assert "slots" in window

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")
