"""Tests of the benchmark harness itself (not part of tier-1's testpaths).

Run with ``python -m pytest perf/tests -q`` from the repository root.
Every workload is driven through its real episode function at a tiny
size passed as a function argument.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERF_DIR)
for path in (os.path.join(ROOT, "src"), PERF_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Sizes small enough for every episode to finish in a fraction of a second.
TINY = {
    "soak_poisson": {"nodes": 30, "warm": 8, "timed": 24},
    "burst_classes": {"nodes": 40, "warm_bursts": 1, "timed_bursts": 2, "burst": 12},
    "tenants_faults": {"nodes": 20, "warm": 10, "timed": 60},
    "federation_loopback": {"nodes": 32, "shards": 2, "jobs": 30},
    "paper_study": {"nodes": 30, "studies": 3, "cycles": 1},
}


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_names_the_workloads_the_harness_has(manifest):
    assert [entry["name"] for entry in manifest["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_validated_episode_passes_and_repeats(name):
    episode_of = workloads.WORKLOADS[name]
    validated = episode_of(11, validate=True, **TINY[name])
    plain = episode_of(11, **TINY[name])
    assert validated.failed == 0 and plain.failed == 0
    assert plain.attempted > 0 and plain.latency_ms
    assert plain.decisions == validated.decisions
    assert plain.counts == validated.counts
    assert episode_of(12, **TINY[name]).decisions != plain.decisions


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_printed_metric_names_equal_the_manifest(name, trace, manifest):
    report = run.measure(name, 11, seconds=0.0, trace=trace, sizes=TINY[name])
    result = report["result"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = manifest["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in wanted]
    for entry in wanted:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_layers_that_run_report_busy_time():
    layers = {
        "soak_poisson": ["environment.ensure_s", "model.snapshot_s", "core.search_s",
                         "scheduling.plan_s", "service.cycle_self_s"],
        "tenants_faults": ["resilience.busy_s", "tenancy.busy_s", "service.admission_s"],
        "federation_loopback": ["federation.route_s", "federation.wire_ms_p50",
                                "federation.offer_attempts_per_job"],
        "paper_study": ["simulation.cycle_self_s", "core.select_s.csa",
                        "core.select_s.minproctime", "environment.generate_s"],
    }
    for name, expected in layers.items():
        report = run.measure(name, 11, seconds=0.0, trace=True, sizes=TINY[name])
        metrics = report["result"]["metrics"]
        for metric in expected:
            assert metrics[metric]["value"] > 0, (name, metric)
        assert metrics["harness.untraced_share"]["value"] < 0.05, name


def test_self_times_of_a_steps_spans_sum_to_its_duration():
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workloads.soak_poisson(11, **TINY["soak_poisson"])
    finished = tracer.finished()
    own = spans.self_times(finished)
    assert all(value >= 0.0 for value in own)
    subtree = list(own)
    # Children close before their parents and sit at higher indices.
    for index in range(len(finished) - 1, -1, -1):
        parent = finished[index][4]
        if parent >= 0:
            subtree[parent] += subtree[index]
    steps = [index for index, span in enumerate(finished) if span[4] < 0]
    assert len(steps) > 10
    for index in steps:
        _layer, _name, start, end, _parent, _request = finished[index]
        assert subtree[index] == pytest.approx(end - start, abs=1e-9)
    assert sum(entry["self_s"] for name, entry in spans.fold(finished).items()
               if not name.startswith("root:")) == pytest.approx(
        spans.covered_seconds(finished), abs=1e-6
    )


def test_spans_carry_the_request_of_their_root():
    tracer = spans.Tracer(episode_id="episode-x")
    with spans.installed(tracer):
        workloads.soak_poisson(11, **TINY["soak_poisson"])
    finished = tracer.finished()
    submits = [span for span in finished if span[1] == "service.submit"]
    assert submits and all(span[5].startswith("job-") for span in submits)
    for _layer, _name, _start, _end, parent, request in finished:
        if parent >= 0 and finished[parent][1] == "service.submit":
            assert request == finished[parent][5]


def test_wrong_span_target_fails_loudly_and_patches_nothing():
    from repro.model.slotpool import SlotPool

    original = SlotPool.copy
    table = (
        ("model", "model.snapshot", "repro.model.slotpool:SlotPool.copy", None),
        ("model", "model.snapshot", "repro.model.slotpool:SlotPool.no_such_method", None),
    )
    with pytest.raises(spans.SpanTargetError, match="SlotPool.no_such_method"):
        with spans.installed(spans.Tracer(), table):
            pass
    assert SlotPool.copy is original
    with pytest.raises(spans.SpanTargetError, match="no_such_module"):
        with spans.installed(spans.Tracer(), (("x", "x", "repro.no_such_module:A.b", None),)):
            pass


def test_installed_restores_every_patched_method():
    from repro.service.broker import BrokerService

    original = BrokerService.pump
    with spans.installed(spans.Tracer()):
        assert BrokerService.pump is not original
    assert BrokerService.pump is original


@pytest.mark.parametrize("tamper", ["decision", "conservation"])
def test_gate_bites_on_a_tampered_count(tamper, monkeypatch, capsys):
    """A wrong count means a non-zero exit and no metrics on stdout."""
    real = workloads.WORKLOADS["soak_poisson"]

    def tampered(seed, validate=False):
        episode = real(seed, validate=validate, **TINY["soak_poisson"])
        if not validate and tamper == "decision":
            episode.decisions["scheduled"] += 1
        if not validate and tamper == "conservation":
            episode.failed = 1
        return episode

    monkeypatch.setitem(workloads.WORKLOADS, "soak_poisson", tampered)
    args = argparse.Namespace(workload="soak_poisson", seed=11, seconds=0.0, trace=0)
    assert run.run_one(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "correctness gate failed" in captured.err


def test_spread_is_the_drivers_rule():
    # statistics.quantiles (exclusive method) puts the quartiles of
    # 10..19 at 11.75 and 17.25; the median is 14.5.
    values = [float(value) for value in range(10, 20)]
    assert run.spread(values) == pytest.approx(5.5 / 14.5)


def test_run_child_reads_the_report_line_before_the_result(monkeypatch):
    report = {"workload": "w", "result": {"correct": True}}
    stdout = json.dumps(report) + "\n" + json.dumps(report["result"]) + "\n"

    def fake_run(command, **_kwargs):
        return run.subprocess.CompletedProcess(command, 0, stdout, "a late warning\n")

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.run_child("w", 1, 0.0, 0) == report
