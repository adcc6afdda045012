"""The soak harness: payload shape and refuse-to-record gates.

Full-scale soak runs live in ``repro bench-soak`` (minutes of wall
clock); these tests drive a miniature run with the gates relaxed to
prove the harness measures and reports the right things, and a second
run with an impossible gate to prove it refuses to record.
"""

from __future__ import annotations

import pytest

from repro.service.soak import SoakGateError, bench_soak

#: One miniature soak shared by the payload assertions — ~2s wall.
MINI = dict(
    jobs=300,
    node_count=12,
    rate=1.0,
    seed=5,
    lead=200.0,
    stride=100.0,
    batch_size=4,
    sample_every=8,
)


@pytest.fixture(scope="module")
def payload():
    return bench_soak(
        **MINI,
        # Tiny pools amortize nothing; gates are exercised separately.
        min_speedup=0.0,
        max_p99_ratio=100.0,
        max_rss_ratio=100.0,
    )


class TestSoakPayload:
    def test_counts_add_up(self, payload):
        counts = payload["counts"]
        assert counts["submitted"] == MINI["jobs"]
        assert counts["admitted"] + counts["rejected"] == counts["submitted"]
        assert counts["scheduled"] > 0

    def test_rolling_horizon_actually_rolled(self, payload):
        virtual = payload["virtual"]
        assert virtual["segments_published"] > 2
        assert virtual["slots_published"] > 0
        # Bounded serving: the live pool stayed far below total published.
        assert virtual["pool_size_max"] < virtual["slots_published"]

    def test_latency_and_memory_sections(self, payload):
        latency = payload["cycle_latency_ms"]
        assert latency["p99_overall"] >= latency["p50_overall"] > 0.0
        # Reported fields are rounded for the JSON artifact.
        assert latency["p99_ratio"] == pytest.approx(
            latency["p99_last_decile"] / latency["p99_first_decile"], abs=1e-2
        )
        rss = payload["rss_mb"]
        assert rss["last_decile"] > 0.0
        assert rss["samples"] > 0
        assert rss["ratio"] == pytest.approx(
            rss["last_decile"] / rss["first_decile"], abs=1e-2
        )

    def test_snapshot_and_kernel_telemetry(self, payload):
        snapshot = payload["snapshot"]
        assert snapshot["samples"] > 0
        assert snapshot["incremental_us_mean"] > 0.0
        assert snapshot["speedup"] > 0.0
        kernel = payload["scan_kernel"]
        assert kernel["vectorized"] > 0  # cheapest AMP policy dispatches
        assert kernel["fallback"] == 0

    def test_gates_record_their_thresholds(self, payload):
        gates = payload["gates"]
        assert gates["min_speedup"] == 0.0
        assert gates["warmup_cycles_excluded"] >= 0


class TestSoakGates:
    def test_impossible_speedup_gate_refuses_to_record(self):
        with pytest.raises(SoakGateError, match="faster than"):
            bench_soak(
                **MINI,
                min_speedup=1e9,
                max_p99_ratio=100.0,
                max_rss_ratio=100.0,
            )

    def test_impossible_rss_gate_refuses_to_record(self):
        with pytest.raises(SoakGateError, match="RSS|rss"):
            bench_soak(
                **MINI,
                min_speedup=0.0,
                max_p99_ratio=100.0,
                max_rss_ratio=0.0,
            )
