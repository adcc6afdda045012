"""Federation benchmark and CLI smoke tests (small, real sockets)."""

from __future__ import annotations

import json

from repro.cli import main
from repro.federation.bench import bench_federation


class TestBenchFederation:
    def test_small_run_reports_latency_and_equivalence(self):
        payload = bench_federation(
            shard_counts=(1, 2), jobs=12, rate=2.0, node_count=12, seed=3
        )
        assert payload["benchmark"] == "federation"
        assert [row["shards"] for row in payload["results"]] == [1, 2]
        equivalence = payload["single_shard_equivalence"]
        assert equivalence["checked"]
        assert equivalence["federation"] == equivalence["reference"]
        for row in payload["results"]:
            latency = row["submit_to_schedule_s"]
            assert latency["samples"] == row["counts"]["aggregate"][
                "scheduled"
            ] + row["counts"]["federation"]["coallocated"]
            assert latency["p50"] <= latency["p99"] <= latency["max"]
            assert row["frames"] >= row["jobs"]
        assert isinstance(payload["host"]["cpu_limited"], bool)


class TestFederationCli:
    def test_serve_federation_self_drive(self, tmp_path, capsys):
        trace = tmp_path / "fed.jsonl"
        code = main(
            [
                "serve-federation",
                "--jobs",
                "10",
                "--nodes",
                "12",
                "--shards",
                "2",
                "--seed",
                "3",
                "--trace",
                str(trace),
                "--validate-trace",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "listening on 127.0.0.1:" in out
        assert "federation trace invariants OK" in out
        lines = trace.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

    def test_serve_federation_json_stats(self, capsys):
        code = main(
            [
                "serve-federation",
                "--jobs",
                "8",
                "--nodes",
                "12",
                "--shards",
                "2",
                "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        stats = json.loads(out[out.index("{"):])
        assert stats["federation"]["submitted"] == 8

    def test_bench_federation_writes_payload(self, tmp_path, capsys):
        output = tmp_path / "BENCH_federation.json"
        code = main(
            [
                "bench-federation",
                "--shards",
                "1,2",
                "--jobs",
                "10",
                "--nodes",
                "12",
                "-o",
                str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "submit→schedule" in out
        assert "matches the single broker" in out
        payload = json.loads(output.read_text())
        assert payload["benchmark"] == "federation"

    def test_parser_rejects_unknown_policy(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["serve-federation", "--policy", "bogus"])
