"""Command-line interface: experiments, sweeps and scheduling from a shell.

Installed as the ``repro`` console script (also runnable as
``python -m repro.cli``).  ``repro --help`` lists the subcommands and
``repro <command> --help`` their options — the parser's ``help=``
strings are the reference.  The ``bench-*`` family is table-driven: one
:class:`Bench` row in :data:`BENCHES` per benchmark, one
:func:`cmd_bench` running any of them and archiving its payload as
``BENCH_<name>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.analysis import comparison_table, render_table
from repro.analysis.gantt import render_gantt
from repro.analysis.paper_reference import FIGURE_REFERENCES
from repro.core import CSA, Criterion
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.federation.config import POLICY_NAMES as _FEDERATION_POLICIES
from repro.io import load_environment, save_environment
from repro.scheduling import BatchScheduler
from repro.simulation import (
    ExperimentConfig,
    run_comparison,
    sweep_interval_lengths,
    sweep_node_counts,
)
from repro.simulation.jobgen import JobGenerator

def _package_version() -> str:
    """The installed distribution version, else the in-tree fallback."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


FIGURE_TITLES = {
    Criterion.START_TIME: "Fig. 2(a) average start time",
    Criterion.RUNTIME: "Fig. 2(b) average runtime",
    Criterion.FINISH_TIME: "Fig. 3(a) average finish time",
    Criterion.PROCESSOR_TIME: "Fig. 3(b) average CPU usage time",
    Criterion.COST: "Fig. 4 average execution cost",
}


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        environment=EnvironmentConfig(node_count=args.nodes),
        cycles=args.cycles,
        seed=args.seed,
    )


def cmd_compare(args: argparse.Namespace) -> int:
    """Handler of the ``repro compare`` subcommand."""
    config = _experiment_config(args)
    print(
        f"running {config.cycles} cycles on {args.nodes} nodes "
        f"(seed {args.seed}, "
        f"{args.workers or 'in-process'} worker(s)) ..."
    )
    result = run_comparison(config, workers=args.workers or None)
    print(
        f"slots/cycle {result.slot_count.mean:.1f} (paper 472.6); "
        f"CSA alternatives/cycle {result.csa.alternatives.mean:.1f} (paper 57)"
    )
    for criterion, title in FIGURE_TITLES.items():
        means = result.all_means(criterion)
        print()
        print(comparison_table(means, FIGURE_REFERENCES[criterion], title=title))
    if args.latex:
        from repro.analysis.latex import latex_comparison

        blocks = []
        for criterion, title in FIGURE_TITLES.items():
            blocks.append(
                latex_comparison(
                    result.all_means(criterion),
                    FIGURE_REFERENCES[criterion],
                    caption=title,
                    label=f"tab:{criterion.value}",
                )
            )
        with open(args.latex, "w", encoding="utf-8") as handle:
            handle.write("\n\n".join(blocks))
            handle.write("\n")
        print(f"wrote LaTeX tables to {args.latex}")
    return 0


def _print_timing_study(study, parameter_label: str) -> None:
    headers = [parameter_label] + [str(int(row.parameter)) for row in study.rows]
    rows = [
        ["slots"] + [round(row.slot_count.mean, 1) for row in study.rows],
        ["CSA alternatives"]
        + [round(row.csa_alternatives.mean, 1) for row in study.rows],
        ["CSA (ms)"] + [round(row.csa_seconds.mean * 1e3, 2) for row in study.rows],
        ["CSA one-sweep (ms)"]
        + [round(row.csa_sweep_seconds.mean * 1e3, 2) for row in study.rows],
    ]
    for name in ("AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"):
        rows.append([f"{name} (ms)"] + [round(row.mean_ms(name), 3) for row in study.rows])
    print(render_table(headers, rows))


def cmd_sweep_nodes(args: argparse.Namespace) -> int:
    """Handler of the ``repro sweep-nodes`` subcommand."""
    config = _experiment_config(args)
    counts = [int(value) for value in args.counts.split(",")]
    study = sweep_node_counts(config, counts, args.reps)
    _print_timing_study(study, "CPU nodes")
    return 0


def cmd_sweep_interval(args: argparse.Namespace) -> int:
    """Handler of the ``repro sweep-interval`` subcommand."""
    config = _experiment_config(args)
    lengths = [float(value) for value in args.lengths.split(",")]
    study = sweep_interval_lengths(config, lengths, args.reps)
    _print_timing_study(study, "interval")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    """Handler of the ``repro generate`` subcommand."""
    config = EnvironmentConfig(node_count=args.nodes, seed=args.seed)
    environment = EnvironmentGenerator(config).generate()
    save_environment(environment, args.output)
    print(
        f"wrote {args.output}: {args.nodes} nodes, "
        f"{len(environment.slots())} slots, "
        f"load {environment.utilization():.0%}"
    )
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    """Handler of the ``repro schedule`` subcommand."""
    if args.env:
        environment = load_environment(args.env)
    else:
        environment = EnvironmentGenerator(
            EnvironmentConfig(node_count=args.nodes, seed=args.seed)
        ).generate()
    generator = JobGenerator(seed=args.seed)
    batch = generator.generate_batch(args.jobs)
    scheduler = BatchScheduler(
        search=CSA(max_alternatives=args.alternatives),
        criterion=Criterion[args.criterion.upper()],
    )
    report = scheduler.run_cycle(batch, environment)
    summary = report.summary()
    if args.json:
        from repro.io import window_to_dict

        payload = {
            "jobs": len(batch),
            "summary": summary,
            "assignments": {
                job_id: window_to_dict(window)
                for job_id, window in report.scheduled.items()
            },
            "unscheduled": sorted(report.unscheduled),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"scheduled {summary['scheduled_jobs']:.0f}/{len(batch)} jobs, "
        f"cost {summary['total_cost']:.1f}, makespan {summary['makespan']:.1f}"
    )
    for job in batch:
        window = report.scheduled.get(job.job_id)
        if window is None:
            print(f"  {job.job_id:<10} prio {job.priority} -> deferred")
        else:
            print(
                f"  {job.job_id:<10} prio {job.priority} -> start {window.start:7.1f} "
                f"finish {window.finish:7.1f} cost {window.total_cost:8.1f}"
            )
    if args.gantt:
        print()
        print(render_gantt(environment, list(report.scheduled.values())))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Handler of the ``repro serve`` subcommand."""
    from repro.service import (
        ResilienceConfig,
        ServiceConfig,
        TraceConfig,
        graceful_interrupt,
        run_service_trace,
    )
    from repro.service.tracing import TraceInvariantError

    resilience = None
    if args.disturbance_rate > 0:
        resilience = ResilienceConfig(
            rate=args.disturbance_rate,
            seed=args.disturbance_seed,
            policy=args.recovery_policy,
        )
    config = TraceConfig(
        jobs=args.jobs,
        rate=args.rate,
        node_count=args.nodes,
        seed=args.seed,
        service=ServiceConfig(
            batch_size=args.batch_size,
            max_wait=args.max_wait,
            alternatives_per_job=args.alternatives,
            criterion=Criterion[args.criterion.upper()],
            completion_factor=args.completion_factor,
            resilience=resilience,
        ),
        trace_path=args.trace,
        validate_trace=args.validate_trace,
    )
    if not args.json:
        print(
            f"streaming {args.jobs} jobs (rate {args.rate:g}/time unit) through "
            f"a {args.nodes}-node broker, batch {args.batch_size} / "
            f"max wait {args.max_wait:g} ..."
        )
    try:
        with graceful_interrupt():
            outcome = run_service_trace(config)
    except KeyboardInterrupt:
        print("interrupted — trace flushed", file=sys.stderr)
        return 130
    except TraceInvariantError as error:
        print(f"TRACE INVARIANT VIOLATION\n{error}", file=sys.stderr)
        if args.trace:
            print(f"offending event trace: {args.trace}", file=sys.stderr)
        return 1
    snapshot = outcome.snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    stats = outcome.service.stats
    print(
        f"submitted {stats.submitted}, admitted {stats.admitted}, "
        f"rejected {stats.rejected}, scheduled {stats.scheduled}, "
        f"deferred {stats.deferred}, dropped {stats.dropped}, "
        f"retired {stats.retired}"
    )
    print(
        f"{stats.cycles} cycles in {outcome.elapsed_seconds:.2f}s wall "
        f"(virtual time {outcome.final_virtual_time:.1f}); "
        f"cycle latency p50 {stats.cycle_latency.p50 * 1e3:.2f}ms "
        f"p95 {stats.cycle_latency.p95 * 1e3:.2f}ms; "
        f"{stats.windows_per_second:.0f} windows/s"
    )
    if stats.revocations:
        print(
            f"resilience ({args.recovery_policy}): {stats.revocations} "
            f"revocations, {stats.repaired} repaired, "
            f"{stats.replanned} replanned, {stats.abandoned} abandoned; "
            f"forfeited {stats.forfeited_node_seconds:.1f} node-s, "
            f"delivered {stats.delivered_node_seconds:.1f} node-s"
        )
    if args.trace:
        print(f"wrote event trace to {args.trace}")
    if outcome.validator is not None:
        summary = outcome.validator.summary()
        kept = (
            summary["scheduled"] - summary["replanned"] - summary["abandoned"]
        )
        print(
            f"trace invariants OK: {summary['events']} events, "
            f"{kept} kept + {summary['dropped']} dropped "
            f"+ {summary['abandoned']} abandoned + {summary['pending']} pending "
            f"= {summary['admitted']} admitted"
        )
    return 0


def _federation_manager(args: argparse.Namespace, sinks) -> "object":
    """A ShardManager built from serve-federation CLI arguments."""
    from repro.environment import EnvironmentConfig, EnvironmentGenerator
    from repro.federation import FederationConfig, ShardManager
    from repro.service import ServiceConfig

    pool = (
        EnvironmentGenerator(
            EnvironmentConfig(node_count=args.nodes, seed=args.seed)
        )
        .generate()
        .slot_pool()
    )
    config = FederationConfig(
        shards=args.shards,
        policy=args.policy,
        coallocation=not args.no_coallocation,
        service=ServiceConfig(
            batch_size=args.batch_size,
            max_wait=args.max_wait,
            alternatives_per_job=args.alternatives,
            criterion=Criterion[args.criterion.upper()],
        ),
    )
    return ShardManager(pool, config=config, sinks=sinks)


def cmd_serve_federation(args: argparse.Namespace) -> int:
    """Handler of the ``repro serve-federation`` subcommand.

    With ``--jobs N`` the command self-drives a scripted arrival stream
    through a loopback client (real sockets end to end) and exits; with
    ``--jobs 0`` (the default) it listens until a ``shutdown`` frame,
    SIGTERM, or Ctrl-C, flushing JSONL sinks on the way out.
    """
    import asyncio

    from repro.federation import (
        FederationClient,
        FederationServer,
        FederationTraceValidator,
    )
    from repro.service import graceful_interrupt
    from repro.service.events import JsonlSink
    from repro.service.tracing import TraceInvariantError
    from repro.simulation import JobGenerator

    sinks = []
    trace_sink = None
    validator = None
    if args.trace:
        trace_sink = JsonlSink(args.trace)
        sinks.append(trace_sink)
    if args.validate_trace:
        validator = FederationTraceValidator()
        sinks.append(validator)
    manager = _federation_manager(args, sinks)

    async def _run() -> dict:
        server = FederationServer(manager, host=args.host, port=args.port)
        await server.start()
        print(
            f"federation of {args.shards} shard(s) over {args.nodes} nodes "
            f"({args.policy} routing) listening on {args.host}:{server.port}"
        )
        try:
            if not args.jobs:
                await server.serve_until_shutdown()
                return {}
            arrivals = list(
                JobGenerator(seed=args.seed).iter_arrivals(
                    args.jobs, rate=args.rate
                )
            )
            client = await FederationClient.connect(port=server.port)
            async with client:
                for arrival_time, job in arrivals:
                    await client.submit(job, at=arrival_time)
                await client.drain()
                stats = await client.stats()
                await client.shutdown()
            return stats
        finally:
            await server.stop()

    try:
        with graceful_interrupt():
            stats = asyncio.run(_run())
    except KeyboardInterrupt:
        if trace_sink is not None:
            trace_sink.close()
        print("interrupted — trace flushed", file=sys.stderr)
        return 130
    finally:
        if trace_sink is not None:
            trace_sink.close()
    if stats:
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            federation = stats["federation"]
            aggregate = stats["aggregate"]
            print(
                f"submitted {federation['submitted']}, "
                f"routed {federation['routed']}, "
                f"coallocated {federation['coallocated']}, "
                f"rejected {federation['rejected']}, "
                f"dropped {federation['dropped']}"
            )
            print(
                f"shards scheduled {aggregate['scheduled']}, "
                f"dropped {aggregate['dropped']}, "
                f"retired {aggregate['retired']} "
                f"(virtual time {stats['now']:.1f})"
            )
    if args.trace:
        print(f"wrote event trace to {args.trace}")
    if validator is not None:
        try:
            validator.check(expect_drained=bool(args.jobs))
        except TraceInvariantError as error:
            print(f"TRACE INVARIANT VIOLATION\n{error}", file=sys.stderr)
            return 1
        summary = validator.summary()
        print(
            f"federation trace invariants OK: {summary['events']} events, "
            f"{summary['routed']} routed + {summary['coallocated']} "
            f"coallocated + {summary['rejected']} rejected across "
            f"{len(summary['shards'])} shard(s)"
        )
    return 0


def _arg(*flags: str, **spec: object) -> tuple[tuple[str, ...], dict[str, object]]:
    """One ``add_argument`` call, as data."""
    return flags, spec


def _resolve(target: str):
    """The object a ``"module:name"`` string names, imported on use."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass(frozen=True)
class Bench:
    """One ``repro bench-<name>`` subcommand, archived as ``BENCH_<name>.json``."""

    name: str
    help: str
    #: ``"module:function"`` returning the JSON payload.
    runner: str
    #: Its own options; ``--seed`` and ``-o/--output`` exist on every bench.
    arguments: tuple[tuple[tuple[str, ...], dict[str, object]], ...]
    banner: Callable[[argparse.Namespace], str]
    #: The lines printed for a payload: one per result row, then notes.
    report: Callable[[dict], Iterable[str]]
    #: Comma-separated options and the type of their elements.
    lists: Mapping[str, Callable[[str], object]] = field(default_factory=dict)
    #: Options the runner takes under another keyword; the rest pass as named.
    rename: Mapping[str, str] = field(default_factory=dict)
    #: The runner's refuse-to-record error (``"module:Error"``) and the
    #: banner it is reported under; a gate failure exits 1, nothing written.
    gate: Optional[tuple[str, str]] = None


def cmd_bench(args: argparse.Namespace) -> int:
    """Handler of every ``repro bench-*`` subcommand (see :data:`BENCHES`)."""
    from repro.io import save_json

    bench: Bench = args.bench
    for option, cast in bench.lists.items():
        values = getattr(args, option).split(",")
        setattr(args, option, [cast(value) for value in values])
    print(bench.banner(args))
    options = {
        bench.rename.get(option, option): value
        for option, value in vars(args).items()
        if option not in ("command", "func", "bench", "output")
    }
    gate_error = _resolve(bench.gate[0]) if bench.gate else ()
    try:
        payload = _resolve(bench.runner)(**options)
    except gate_error as error:
        print(f"{bench.gate[1]}\n{error}", file=sys.stderr)
        return 1
    for line in bench.report(payload):
        print(line)
    if args.output:
        save_json(payload, args.output)
        print(f"wrote {args.output}")
    return 0


def _federation_report(payload: dict) -> Iterable[str]:
    for row in payload["results"]:
        latency = row["submit_to_schedule_s"]
        yield (
            f"  {row['shards']:>3} shard(s): {row['jobs_per_s']:8.1f} jobs/s, "
            f"submit→schedule p50 {latency['p50'] * 1e3:.2f}ms "
            f"p99 {latency['p99'] * 1e3:.2f}ms "
            f"({latency['samples']} placed), {row['frames']} frames"
        )
    if payload["single_shard_equivalence"]:
        yield "  1-shard run matches the single broker exactly"
    if payload["host"]["cpu_limited"]:
        yield "  note: single-CPU host — throughput is CPU-bound"


def _soak_report(payload: dict) -> Iterable[str]:
    latency = payload["cycle_latency_ms"]
    rss = payload["rss_mb"]
    snapshot = payload["snapshot"]
    yield (
        f"  {payload['counts']['cycles']} cycles over "
        f"{payload['virtual']['segments_published']} horizon segments "
        f"in {payload['elapsed_s']:.1f}s wall "
        f"({payload['jobs_per_s']:.1f} jobs/s)"
    )
    yield (
        f"  p99 cycle latency {latency['p99_first_decile']:.1f}ms -> "
        f"{latency['p99_last_decile']:.1f}ms "
        f"({latency['p99_ratio']:.2f}x); RSS {rss['first_decile']:.1f}MB -> "
        f"{rss['last_decile']:.1f}MB ({rss['ratio']:.2f}x)"
    )
    yield (
        f"  incremental snapshot {snapshot['incremental_us_mean']:.1f}us vs "
        f"rebuild {snapshot['rebuild_us_mean']:.1f}us = "
        f"{snapshot['speedup']:.1f}x over {snapshot['samples']} samples; "
        f"scan kernel {payload['scan_kernel']['vectorized']} vectorized / "
        f"{payload['scan_kernel']['fallback']} fallback"
    )
    if payload["host"]["cpu_limited"]:
        yield "  note: single-CPU host — wall throughput is CPU-bound"


BENCHES: tuple[Bench, ...] = (
    Bench(
        name="federation",
        help="federation latency/throughput over real loopback sockets",
        runner="repro.federation:bench_federation",
        arguments=(
            _arg("--shards", default="1,4,16", help="comma-separated shard counts"),
            _arg("--jobs", type=int, default=200),
            _arg("--rate", type=float, default=2.0),
            _arg("--nodes", type=int, default=64),
            _arg("--policy", default="hash", choices=list(_FEDERATION_POLICIES)),
        ),
        lists={"shards": int},
        rename={"shards": "shard_counts", "nodes": "node_count"},
        banner=lambda args: (
            f"benchmarking the federation front door: {args.jobs} jobs over "
            f"loopback sockets at {args.shards} shard(s), "
            f"{args.nodes} nodes, {args.policy} routing ..."
        ),
        report=_federation_report,
    ),
    Bench(
        name="soak",
        help="rolling-horizon soak: flat-memory / stable-latency gates "
             "over 10^5 jobs and hundreds of horizon segments",
        runner="repro.service.soak:bench_soak",
        arguments=(
            _arg("--jobs", type=int, default=100_000),
            _arg("--nodes", type=int, default=200),
            _arg("--rate", type=float, default=0.8,
                 help="mean arrivals per virtual time unit"),
            _arg("--lead", type=float, default=600.0,
                 help="rolling-horizon lead (time units ahead of now the pool "
                      "must cover)"),
            _arg("--stride", type=float, default=600.0,
                 help="horizon segment length"),
            _arg("--batch-size", type=int, default=8),
            _arg("--amp-policy", default="cheapest", choices=("cheapest", "first"),
                 help="phase-one AMP policy: cheapest is the start-optimal "
                      "n-cheapest scan, first the paper-faithful eviction scan "
                      "(CSA serves either from one sweep per job)"),
            _arg("--sample-every", type=int, default=64,
                 help="cycles between RSS / snapshot-cost probes"),
            _arg("--min-speedup", type=float, default=5.0,
                 help="refuse-to-record gate: incremental snapshot vs "
                      "per-cycle rebuild"),
            _arg("--max-p99-ratio", type=float, default=1.2,
                 help="refuse-to-record gate: last-decile p99 over "
                      "first-decile p99 (post-warmup)"),
            _arg("--max-rss-ratio", type=float, default=1.2,
                 help="refuse-to-record gate: last-decile RSS over "
                      "first-decile RSS (post-warmup)"),
        ),
        rename={"nodes": "node_count"},
        banner=lambda args: (
            f"soaking the rolling-horizon broker: {args.jobs} jobs at rate "
            f"{args.rate:g} on {args.nodes} nodes, horizon lead {args.lead:g} / "
            f"stride {args.stride:g} ({args.amp_policy} scans) ..."
        ),
        report=_soak_report,
        gate=("repro.service.soak:SoakGateError", "SOAK GATE FAILED"),
    ),
)


def cmd_presets(args: argparse.Namespace) -> int:
    """Handler of the ``repro presets`` subcommand."""
    from repro.environment import PRESETS, EnvironmentGenerator, preset

    rows = []
    for name in sorted(PRESETS):
        config = preset(name, node_count=args.nodes, seed=args.seed)
        environment = EnvironmentGenerator(config).generate()
        rows.append(
            [
                name,
                f"{config.performance_range[0]}-{config.performance_range[1]}",
                f"{config.load.load_range[0]:.0%}-{config.load.load_range[1]:.0%}",
                f"{config.pricing.exponent:g}/{config.pricing.sigma:g}",
                len(environment.slots()),
                f"{environment.utilization():.0%}",
            ]
        )
    print(
        render_table(
            ["preset", "perf", "load range", "price exp/sigma", "slots", "util"],
            rows,
            title=f"environment presets ({args.nodes} nodes, seed {args.seed})",
        )
    )
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    """Handler of the ``repro flow`` subcommand."""
    from repro.service import ServiceConfig, TraceInvariantError, run_flow

    try:
        result = run_flow(
            args.cycles,
            args.arrivals,
            node_count=args.nodes,
            seed=args.seed,
            service=ServiceConfig(
                alternatives_per_job=args.alternatives,
                criterion=Criterion[args.criterion.upper()],
            ),
            trace_path=args.trace,
        )
    except TraceInvariantError as error:
        print(f"TRACE INVARIANT VIOLATION\n{error}", file=sys.stderr)
        return 1
    print(
        render_table(
            ["cycle", "submitted", "scheduled", "deferred", "dropped", "cost", "makespan"],
            [row[:5] + [round(row[5], 1), round(row[6], 1)] for row in result.cycles],
            title=(
                f"job flow: {args.cycles} cycles x {args.arrivals} arrivals, "
                f"policy {args.criterion}"
            ),
        )
    )
    print(
        f"\nthroughput {result.throughput:.2f} jobs/cycle, "
        f"drop rate {result.drop_rate:.0%}, "
        f"mean cost {result.cost.mean:.1f}, "
        f"mean wait {result.waiting_cycles.mean:.2f} cycles, "
        f"service fairness {result.service_fairness:.2f}"
    )
    if result.rejected_total:
        print(f"{result.rejected_total} job(s) rejected at admission")
    if args.trace:
        print(f"wrote event trace to {args.trace}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Handler of the ``repro report`` subcommand."""
    from repro.analysis.report import build_report

    config = _experiment_config(args)
    print(f"running {config.cycles} cycles for the report ...")
    result = run_comparison(config)
    node_study = interval_study = None
    if args.reps > 0:
        print("running the Table 1 / Table 2 sweeps ...")
        node_study = sweep_node_counts(config, (50, 100, 200), args.reps)
        interval_study = sweep_interval_lengths(
            config, (600.0, 1200.0, 2400.0), args.reps
        )
    text = build_report(result, node_study, interval_study)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


def _add_criterion(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--criterion",
        default="finish_time",
        choices=[criterion.value for criterion in Criterion],
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line interface definition."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Slot selection & co-allocation experiments (PaCT 2013 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run the Figs. 2-4 comparison")
    compare.add_argument("--cycles", type=int, default=200)
    compare.add_argument("--nodes", type=int, default=100)
    compare.add_argument("--seed", type=int, default=2013)
    compare.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for the cycle fan-out (0 = in-process; "
             "aggregates are identical for every value)",
    )
    compare.add_argument(
        "--latex", help="also write the figure tables as LaTeX to this path"
    )
    compare.set_defaults(func=cmd_compare)

    nodes = sub.add_parser("sweep-nodes", help="the Table 1 working-time sweep")
    nodes.add_argument("--counts", default="50,100,200,300,400")
    nodes.add_argument("--reps", type=int, default=20)
    nodes.add_argument("--cycles", type=int, default=1)
    nodes.add_argument("--nodes", type=int, default=100)
    nodes.add_argument("--seed", type=int, default=2013)
    nodes.set_defaults(func=cmd_sweep_nodes)

    interval = sub.add_parser(
        "sweep-interval", help="the Table 2 working-time sweep"
    )
    interval.add_argument("--lengths", default="600,1200,1800,2400,3000,3600")
    interval.add_argument("--reps", type=int, default=20)
    interval.add_argument("--cycles", type=int, default=1)
    interval.add_argument("--nodes", type=int, default=100)
    interval.add_argument("--seed", type=int, default=2013)
    interval.set_defaults(func=cmd_sweep_interval)

    generate = sub.add_parser("generate", help="generate an environment JSON")
    generate.add_argument("--nodes", type=int, default=100)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("-o", "--output", required=True)
    generate.set_defaults(func=cmd_generate)

    schedule = sub.add_parser("schedule", help="run one batch scheduling cycle")
    schedule.add_argument("--env", help="environment JSON (else generate fresh)")
    schedule.add_argument("--nodes", type=int, default=60)
    schedule.add_argument("--seed", type=int, default=7)
    schedule.add_argument("--jobs", type=int, default=5)
    schedule.add_argument("--alternatives", type=int, default=15)
    _add_criterion(schedule)
    schedule.add_argument("--gantt", action="store_true", help="draw an ASCII Gantt")
    schedule.add_argument(
        "--json", action="store_true", help="emit the assignments as JSON"
    )
    schedule.set_defaults(func=cmd_schedule)

    serve = sub.add_parser(
        "serve", help="stream a scripted arrival trace through the broker service"
    )
    serve.add_argument("--jobs", type=int, default=100)
    serve.add_argument("--nodes", type=int, default=50)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--rate", type=float, default=2.0, help="mean arrivals per virtual time unit"
    )
    serve.add_argument("--batch-size", type=int, default=8,
                       help="queue depth that triggers a cycle")
    serve.add_argument("--max-wait", type=float, default=25.0,
                       help="max virtual-time wait before a cycle fires")
    serve.add_argument("--alternatives", type=int, default=10)
    _add_criterion(serve)
    serve.add_argument(
        "--completion-factor", type=float, default=1.0,
        help="fraction of the reservation jobs actually use (<1 = early finish)",
    )
    serve.add_argument(
        "--disturbance-rate", type=float, default=0.0,
        help="local-job arrivals per active node per virtual time unit "
             "(0 = no fault injection, the default)",
    )
    serve.add_argument(
        "--disturbance-seed", type=int, default=97,
        help="root seed of the revocation injector's spawned streams",
    )
    serve.add_argument(
        "--recovery-policy", default="repair",
        choices=["repair", "replan", "abandon"],
        help="what to do with a committed window hit by a revocation",
    )
    serve.add_argument(
        "--trace", help="write a JSONL event trace (one event per line) here"
    )
    serve.add_argument(
        "--validate-trace", action="store_true",
        help="replay the event stream through the TraceValidator; "
             "exit non-zero on any conservation violation",
    )
    serve.add_argument("--json", action="store_true", help="emit the stats as JSON")
    serve.set_defaults(func=cmd_serve)

    serve_fed = sub.add_parser(
        "serve-federation",
        help="serve a sharded broker federation over loopback TCP",
    )
    serve_fed.add_argument("--shards", type=int, default=4)
    serve_fed.add_argument("--nodes", type=int, default=64)
    serve_fed.add_argument("--seed", type=int, default=7)
    serve_fed.add_argument(
        "--policy", default="hash", choices=list(_FEDERATION_POLICIES),
        help="placement policy ordering the shards per job",
    )
    serve_fed.add_argument(
        "--jobs", type=int, default=0,
        help="self-drive this many scripted arrivals through a loopback "
             "client and exit (0 = listen until shutdown/SIGTERM)",
    )
    serve_fed.add_argument(
        "--rate", type=float, default=2.0,
        help="mean arrivals per virtual time unit (self-drive mode)",
    )
    serve_fed.add_argument("--host", default="127.0.0.1")
    serve_fed.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (0 picks a free port and prints it)",
    )
    serve_fed.add_argument("--batch-size", type=int, default=8)
    serve_fed.add_argument("--max-wait", type=float, default=25.0)
    serve_fed.add_argument("--alternatives", type=int, default=10)
    _add_criterion(serve_fed)
    serve_fed.add_argument(
        "--no-coallocation", action="store_true",
        help="disable the cross-shard co-allocation fallback",
    )
    serve_fed.add_argument(
        "--trace", help="write the merged JSONL event trace here"
    )
    serve_fed.add_argument(
        "--validate-trace", action="store_true",
        help="replay the merged stream through the FederationTraceValidator; "
             "exit non-zero on any conservation violation",
    )
    serve_fed.add_argument("--json", action="store_true",
                           help="emit the stats as JSON")
    serve_fed.set_defaults(func=cmd_serve_federation)

    for bench in BENCHES:
        bench_parser = sub.add_parser(f"bench-{bench.name}", help=bench.help)
        for flags, spec in bench.arguments:
            bench_parser.add_argument(*flags, **spec)
        bench_parser.add_argument("--seed", type=int, default=2013, help="root seed")
        bench_parser.add_argument(
            "-o", "--output",
            help=f"write the JSON payload here (BENCH_{bench.name}.json)",
        )
        bench_parser.set_defaults(func=cmd_bench, bench=bench)

    presets = sub.add_parser("presets", help="list environment presets")
    presets.add_argument("--nodes", type=int, default=100)
    presets.add_argument("--seed", type=int, default=1)
    presets.set_defaults(func=cmd_presets)

    flow = sub.add_parser("flow", help="run a cycle-by-cycle job flow on the broker")
    flow.add_argument("--cycles", type=int, default=6)
    flow.add_argument("--arrivals", type=int, default=4)
    flow.add_argument("--nodes", type=int, default=50)
    flow.add_argument("--seed", type=int, default=7)
    flow.add_argument("--alternatives", type=int, default=10)
    _add_criterion(flow)
    flow.add_argument("--trace", help="write the broker's JSONL event trace here")
    flow.set_defaults(func=cmd_flow)

    report = sub.add_parser(
        "report", help="write a markdown reproduction report (Figs. 2-4 + sweeps)"
    )
    report.add_argument("--cycles", type=int, default=200)
    report.add_argument("--nodes", type=int, default=100)
    report.add_argument("--seed", type=int, default=2013)
    report.add_argument("--reps", type=int, default=0,
                        help="timing-sweep repetitions (0 skips Tables 1-2)")
    report.add_argument("-o", "--output", required=True)
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
