"""The repo's benchmark: end-to-end numbers with tracing off, per-layer
numbers from a separate traced pass, correctness checked outside both.

One measuring run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 perf/run.py --workload soak_poisson --seed 2013 --seconds 10 --trace 0

prints a human-readable table on stderr and, as the last line of stdout,
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` (the
line before it is the run's full report, which ``run_child`` reads).
Without ``--workload`` every workload is run, timed then traced, each in
a child process of this same command; ``--check-repeat`` runs two such
sets over several seeds and fails unless they agree within the bounds.

Run shape (see README.md for the host-noise numbers behind it): a
workload is a deterministic *episode*; a run repeats the same episode —
same seed, same inputs, fresh system each time — until ``--seconds`` of
timed wall have been measured.  Throughput and set-up time are medians
over the episodes; latency quantiles are taken over the samples of all
episodes pooled.  After the measured episodes one more episode runs with
the trace validators attached (never timed); every measured episode's
decision counts must equal its counts, or the run exits non-zero and
prints no numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Optional, Sequence

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(PERF_DIR, "out")
BASELINE_PATH = os.path.join(PERF_DIR, "BASELINE.json")

#: A run measures at least this many episodes (a median of fewer rejects
#: no outlier) and stops early rather than exceed the contract's run cap.
MIN_EPISODES = 3
MAX_RUN_SECONDS = 120.0

#: ``--check-repeat`` compares two sets of this many runs, one seed each
#: (the driver's own acceptance check has the same shape).
CHECK_REPEAT_RUNS = 10

#: Iterations of the fixed pure-Python calibration loop (~25 ms).
CALIBRATION_ITERATIONS = 400_000


class GateError(RuntimeError):
    """The correctness gate failed; no numbers may be printed."""


def load_manifest() -> dict[str, Any]:
    with open(MANIFEST_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_program() -> tuple[Any, Any, float]:
    """Import the program under test from this checkout's ``src/``.

    Returns ``(workloads module, spans module, import seconds)``.  Byte
    code is never written, so every run compiles the sources and the
    first run in a fresh checkout costs what the tenth does.
    """
    sys.dont_write_bytecode = True
    source = os.path.join(ROOT, "src")
    for path in (PERF_DIR, source):
        if path not in sys.path:
            sys.path.insert(0, path)
    began = perf_counter()
    try:
        import repro
        import spans
        import workloads
    except ImportError as error:
        raise SystemExit(
            f"cannot import the program under test from {source}: {error}"
        ) from error
    import_s = perf_counter() - began
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(
            f"refusing to measure: 'repro' resolved to {repro.__file__}, "
            f"not to this checkout's {source}"
        )
    return workloads, spans, import_s


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes: the host's weather.

    Reported beside the numbers, never used to rescale any of them.
    """
    began = perf_counter()
    total = 0
    for value in range(CALIBRATION_ITERATIONS):
        total += value * value % 7
    return (perf_counter() - began) * 1e3


def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (0.0 for no samples)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (ordered[above] - ordered[below]) * (position - below)


def pooled(rows: Sequence[Sequence[float]]) -> list[float]:
    """The samples of every episode of a run, as one list."""
    return [sample for row in rows for sample in row]


def decision_fingerprint(decisions: dict[str, Any]) -> str:
    """A short hash of an episode's exact outcome counts."""
    text = json.dumps(decisions, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# One measuring run
# ----------------------------------------------------------------------
def _check_episode(episode: Any, reference: Optional[Any], label: str) -> None:
    """Raise unless the episode conserved its jobs and decided as ``reference``."""
    if episode.failed:
        raise GateError(
            f"{label}: {episode.failed} of {episode.attempted} operations are "
            f"unaccounted for by the conservation laws: {episode.decisions}"
        )
    if reference is None:
        return
    for field in ("decisions", "counts"):
        ours, theirs = getattr(episode, field), getattr(reference, field)
        if ours != theirs:
            differing = {
                key: (ours.get(key), theirs.get(key))
                for key in sorted(set(ours) | set(theirs))
                if ours.get(key) != theirs.get(key)
            }
            raise GateError(
                f"{label}: {field} differ from the validated episode "
                f"(measured, validated): {differing}"
            )


def end_to_end_metrics(
    episodes: Sequence[Any], import_s: float, peak_rss_kb: int
) -> dict[str, float]:
    """The end-to-end values of one run's measured episodes."""
    latency_ms = pooled([episode.latency_ms for episode in episodes])
    return {
        "setup_s": import_s + statistics.median(e.setup_s for e in episodes),
        "jobs_per_s": episodes[0].attempted
        / statistics.median(e.wall_s for e in episodes),
        "latency_ms_p50": quantile(latency_ms, 0.50),
        # Exact per seed: every episode's counts equal the validated one's.
        "scheduled_share": _ratio(
            episodes[0].counts["placed_total"], episodes[0].counts["submitted_total"]
        ),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


#: Span name -> the metric name its summed self time and exact span
#: count are printed under, with ``{}`` standing for ``_s`` / ``_calls``.
SPAN_METRICS = (
    ("environment.generate", "environment.generate{}"),
    ("environment.ensure", "environment.ensure{}"),
    ("model.snapshot", "model.snapshot{}"),
    ("model.commit", "model.commit{}"),
    ("model.release", "model.release{}"),
    ("model.trim", "model.trim{}"),
    ("model.add", "model.add{}"),
    ("scheduling.plan", "scheduling.plan{}"),
    ("service.submit", "service.submit{}"),
    ("service.admission", "service.admission{}"),
    ("service.cycle", "service.cycle_self{}"),
    ("resilience.busy", "resilience.busy{}"),
    ("tenancy.busy", "tenancy.busy{}"),
    ("federation.route", "federation.route{}"),
    ("federation.coalloc", "federation.coalloc{}"),
    ("simulation.cycle", "simulation.cycle_self{}"),
    # Core self time is attributed to the outermost core span (fold()).
    ("root:core.search", "core.select{}.csa"),
    ("root:core.select.amp", "core.select{}.amp"),
    ("root:core.select.minfinish", "core.select{}.minfinish"),
    ("root:core.select.mincost", "core.select{}.mincost"),
    ("root:core.select.minruntime", "core.select{}.minruntime"),
    ("root:core.select.minproctime", "core.select{}.minproctime"),
)


def per_layer_metrics(
    plain: Sequence[Any],
    traced: Sequence[Any],
    folds: Sequence[dict[str, dict[str, float]]],
    wire_ms: Sequence[float],
    untraced_shares: Sequence[float],
    calibration_ms: float,
) -> dict[str, float]:
    """The per-layer values of one traced run.

    ``*_s`` is a span name's self time summed over an episode (median
    over the traced episodes), ``*_calls`` its exact span count; the
    counts come from the program's own statistics over the timed part.
    """
    metrics: dict[str, float] = {}
    for span_name, stem in SPAN_METRICS:
        metrics[stem.format("_s")] = statistics.median(
            fold.get(span_name, {}).get("self_s", 0.0) for fold in folds
        )
        metrics[stem.format("_calls")] = folds[0].get(span_name, {}).get("calls", 0)
    core = [stem for span_name, stem in SPAN_METRICS if span_name.startswith("root:")]
    counts = traced[0].counts

    def count(name: str) -> float:
        return counts.get(name, 0)

    # The tails demoted from the end-to-end list (see README): taken
    # from the run's untraced episodes, so tracing does not inflate them.
    latency_ms = pooled([episode.latency_ms for episode in plain])
    metrics.update(
        {
            "latency_ms_p90": quantile(latency_ms, 0.90),
            "latency_ms_p95": quantile(latency_ms, 0.95),
            "latency_ms_p99": quantile(latency_ms, 0.99),
            "environment.slots_published": count("environment.slots_published"),
            "model.pool_slots_mean": count("model.pool_slots_mean"),
            "core.search_s": sum(metrics[stem.format("_s")] for stem in core),
            "core.search_calls": sum(metrics[stem.format("_calls")] for stem in core),
            "core.windows_found": count("core.windows_found"),
            "core.scans": count("core.scans"),
            "core.scans_fallback": count("core.scans_fallback"),
            "core.plans_built": count("core.plans_built"),
            "core.plans_reused": count("core.plans_reused"),
            "core.plan_reuse_ratio": _ratio(
                count("core.plans_reused"),
                count("core.plans_reused") + count("core.plans_built"),
            ),
            "core.grouped_shared_ratio": _ratio(
                count("core.grouped_shared"), count("core.grouped_jobs")
            ),
            "core.batch_sweeps": count("core.batch_sweeps"),
            "scheduling.deferred_ratio": _ratio(
                count("service.deferred"), count("scheduling.batched")
            ),
            "service.cycles": count("service.cycles"),
            "service.rejected": count("service.rejected"),
            "service.dropped": count("service.dropped"),
            "service.deferred": count("service.deferred"),
            "resilience.revocations": count("resilience.revocations"),
            "resilience.repaired_ratio": _ratio(
                count("resilience.repaired"), count("resilience.revocations")
            ),
            "tenancy.insufficient_credit": count("tenancy.insufficient_credit"),
            "tenancy.price_multiplier_final": count("tenancy.price_multiplier_final"),
            "federation.wire_ms_p50": quantile(wire_ms, 0.50),
            "federation.frames": count("federation.frames"),
            "federation.coallocated": count("federation.coallocated"),
            "federation.offer_attempts_per_job": _ratio(
                count("federation.offers"), count("submitted")
            ),
            "harness.trace_overhead_share": _ratio(
                statistics.median(e.wall_s for e in traced),
                statistics.median(e.wall_s for e in plain),
            )
            - 1.0,
            "harness.untraced_share": statistics.median(untraced_shares),
            "harness.calib_ms": calibration_ms,
        }
    )
    return metrics


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Optional[dict[str, int]] = None,
) -> dict[str, Any]:
    """One run of one workload; raises :class:`GateError` on any mismatch.

    ``sizes`` overrides the episode function's size arguments (the
    harness tests run every workload tiny); the command line never does.
    """
    sizes = sizes or {}
    run_began = perf_counter()
    manifest = load_manifest()
    workloads, spans, import_s = load_program()
    if workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}"
        )
    episode_of = workloads.WORKLOADS[workload]
    calibration = [calibrate()]

    plain: list[Any] = []
    traced: list[Any] = []
    folds: list[dict[str, dict[str, float]]] = []
    wire_ms: list[float] = []
    untraced_shares: list[float] = []
    measured_s = 0.0
    while (
        len(plain) < MIN_EPISODES or measured_s < seconds
    ) and perf_counter() - run_began < MAX_RUN_SECONDS:
        episode = episode_of(seed, **sizes)
        plain.append(episode)
        measured_s += episode.wall_s
        if not trace:
            continue
        tracer = spans.Tracer(episode_id=f"{workload}-{len(traced)}")
        with spans.installed(tracer):
            episode = episode_of(seed, **sizes)
        timed_spans = tracer.finished(since=episode.timed_from)
        folds.append(spans.fold(timed_spans))
        wire_ms.extend(
            own * 1e3
            for own, span in zip(spans.self_times(timed_spans), timed_spans)
            if span[1] == "federation.client_submit"
        )
        untraced_shares.append(
            1.0 - _ratio(spans.covered_seconds(timed_spans), episode.wall_s)
        )
        if not traced:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans.write_jsonl(
                os.path.join(OUT_DIR, f"{workload}.spans.jsonl"), timed_spans
            )
        traced.append(episode)
        measured_s += episode.wall_s
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration.append(calibrate())

    # The validated episode runs last so that the validators' own memory
    # never reaches the peak-RSS reading above.
    reference = episode_of(seed, validate=True, **sizes)
    _check_episode(reference, None, "validated episode")
    for index, episode in enumerate(plain + traced):
        _check_episode(episode, reference, f"episode {index}")

    if trace:
        values = per_layer_metrics(
            plain, traced, folds, wire_ms, untraced_shares,
            statistics.mean(calibration),
        )
        wanted = manifest["per_layer"]
    else:
        values = end_to_end_metrics(plain, import_s, peak_rss_kb)
        wanted = manifest["end_to_end"]
    missing = [entry["name"] for entry in wanted if entry["name"] not in values]
    if missing:
        raise GateError(f"BENCHMARK.json names metrics the harness lacks: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "episodes": len(plain),
        "traced_episodes": len(traced),
        "latency_samples": len(plain[0].latency_ms),
        "episode_wall_s": [round(episode.wall_s, 4) for episode in plain],
        "calib_ms": [round(value, 3) for value in calibration],
        "decisions": reference.decisions,
        "decision_fingerprint": decision_fingerprint(reference.decisions),
        "result": {
            "correct": True,
            "attempted": sum(episode.attempted for episode in plain + traced),
            "failed": 0,
            "metrics": {
                entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
                for entry in wanted
            },
        },
    }


def print_report(report: dict[str, Any], manifest: dict[str, Any], stream: Any) -> None:
    """The run's numbers by name, with unit and regression bound."""
    bounds = {entry["name"]: entry.get("bound") for entry in manifest["end_to_end"]}
    print(
        f"# {report['workload']} seed={report['seed']} "
        f"episodes={report['episodes']}+{report['traced_episodes']} traced "
        f"latency_samples/episode={report['latency_samples']} "
        f"calib_ms={report['calib_ms']} "
        f"decision_fingerprint={report['decision_fingerprint']}",
        file=stream,
    )
    for name, metric in report["result"]["metrics"].items():
        bound = bounds.get(name)
        suffix = f"  (bound {bound:.0%})" if bound is not None else ""
        print(f"{name:38s} {metric['value']:14.6g} {metric['unit']}{suffix}", file=stream)


def run_one(args: argparse.Namespace) -> int:
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except GateError as error:
        print(f"correctness gate failed, no numbers reported: {error}", file=sys.stderr)
        return 1
    print_report(report, load_manifest(), sys.stderr)
    # The full report for run_child(), then the contract's result line.
    print(json.dumps(report))
    print(json.dumps(report["result"]))
    return 0


# ----------------------------------------------------------------------
# Every workload, and the repeatability check
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict[str, Any]:
    """One measuring run in a fresh process; its full report."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    # The child inherits the thread caps main() put into os.environ.
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=180, check=False
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise GateError(f"{workload} (trace {trace}) exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-2])


def host_block() -> dict[str, Any]:
    _workloads, _spans, _import_s = load_program()
    import numpy
    from repro.hostinfo import host_payload

    block = dict(host_payload(parallel_target=1))
    block["nproc"] = os.cpu_count()
    block["numpy"] = numpy.__version__
    try:
        block["commit"] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        block["commit"] = None
    return block


def run_all(args: argparse.Namespace) -> int:
    """Every workload: one timed run, one traced run, one table each."""
    manifest = load_manifest()
    try:
        for entry in manifest["workloads"]:
            timed = run_child(entry["name"], args.seed, args.seconds, 0)
            traced = run_child(entry["name"], args.seed, args.seconds, 1)
            if timed["decisions"] != traced["decisions"]:
                raise GateError(
                    f"{entry['name']}: timed and traced runs decided differently: "
                    f"{timed['decisions']} vs {traced['decisions']}"
                )
            print(f"\n## {entry['name']} — {entry['why']}")
            print_report(timed, manifest, sys.stdout)
            print_report(traced, manifest, sys.stdout)
    except GateError as error:
        print(f"correctness gate failed: {error}", file=sys.stderr)
        return 1
    return 0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    first, _middle, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def check_repeat(args: argparse.Namespace) -> int:
    """Two sets of runs over the same seeds; fail unless they agree.

    ``perf/BASELINE.json`` is rewritten only by a check that passed.
    """
    manifest = load_manifest()
    names = [entry["name"] for entry in manifest["workloads"]]
    sets: list[dict[str, list[dict[str, Any]]]] = []
    try:
        for _label in "AB":
            runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
            for offset in range(CHECK_REPEAT_RUNS):
                # Round-robin, so every workload samples the same
                # stretch of host weather.
                for name in names:
                    report = run_child(name, args.seed + offset, args.seconds, 0)
                    runs[name].append(report)
                    print(
                        _label, name, report["seed"],
                        {
                            metric: round(entry["value"], 4)
                            for metric, entry in report["result"]["metrics"].items()
                        },
                        file=sys.stderr, flush=True,
                    )
            sets.append(runs)
    except GateError as error:
        print(f"correctness gate failed: {error}", file=sys.stderr)
        return 1

    failures: list[str] = []
    table: dict[str, dict[str, dict[str, float]]] = {}
    print(f"{'workload':20s} {'metric':16s} {'median A':>12s} {'median B':>12s} "
          f"{'B vs A':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for name in names:
        for offset, (first, second) in enumerate(zip(sets[0][name], sets[1][name])):
            if first["decisions"] != second["decisions"]:
                failures.append(f"{name} seed {args.seed + offset}: decisions differ")
        table[name] = {}
        for entry in manifest["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            series = [
                [run["result"]["metrics"][metric]["value"] for run in runs[name]]
                for runs in sets
            ]
            median_a, median_b = (statistics.median(values) for values in series)
            worse = (median_b - median_a) / median_a
            if entry["better"] == "higher":
                worse = -worse
            spreads = [spread(values) for values in series]
            table[name][metric] = {
                "median_a": median_a, "median_b": median_b,
                "spread_a": spreads[0], "spread_b": spreads[1], "bound": bound,
            }
            print(f"{name:20s} {metric:16s} {median_a:12.5g} {median_b:12.5g} "
                  f"{-worse:+8.1%} {spreads[0]:9.1%} {spreads[1]:9.1%} {bound:6.0%}")
            if worse > bound:
                failures.append(f"{name} {metric}: set B worse than set A by {worse:.1%}")
            if metric == "scheduled_share" and series[0] != series[1]:
                failures.append(f"{name} {metric}: differs between the sets")
            if metric != "setup_s" and max(spreads) > bound:
                failures.append(f"{name} {metric}: spread {max(spreads):.1%} over bound")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "host": host_block(),
                "seeds": [args.seed + offset for offset in range(CHECK_REPEAT_RUNS)],
                "run_seconds": args.seconds,
                "decision_fingerprints": {
                    name: sets[0][name][0]["decision_fingerprint"] for name in names
                },
                "end_to_end": table,
            },
            handle, indent=2, sort_keys=True,
        )
        handle.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed wall to measure (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets of ten seeds and compare them")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_manifest()["run_seconds"])
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    if args.check_repeat:
        return check_repeat(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
