"""Scripted-trace driver for the broker service.

``run_service_trace`` is what ``repro serve`` executes: generate an
environment, stream a seeded Poisson arrival trace through a
:class:`~repro.service.BrokerService`, and report the stats block.
``run_flow`` is what ``repro flow`` executes: the same run fed a
tick-aligned arrival stream, folded into per-cycle and per-job figures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Iterable, Optional, Sequence

from repro.analysis.fairness import jain_index
from repro.environment.generator import EnvironmentConfig, EnvironmentGenerator
from repro.model.errors import ConfigurationError
from repro.model.job import Job
from repro.service.broker import BrokerService
from repro.service.config import ServiceConfig
from repro.service.events import CollectingSink, Event, EventSink, EventType, JsonlSink
from repro.service.tracing import TraceValidator
from repro.simulation.jobgen import JobGenerator
from repro.simulation.metrics import RunningStat


@dataclass(frozen=True)
class TraceConfig:
    """Parameters of one scripted service run.

    ``trace_path`` attaches a JSONL event sink (the ``repro serve
    --trace`` wiring); ``validate_trace`` rides a
    :class:`~repro.service.tracing.TraceValidator` along the stream and
    checks the conservation invariants once the run has drained.
    """

    jobs: int = 100
    rate: float = 2.0
    node_count: int = 50
    seed: Optional[int] = 7
    service: ServiceConfig = field(default_factory=ServiceConfig)
    trace_path: Optional[str] = None
    validate_trace: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {self.jobs}")
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")
        if self.node_count < 1:
            raise ConfigurationError(f"node_count must be >= 1, got {self.node_count}")


@dataclass(frozen=True)
class TraceResult:
    """Outcome of one scripted run: the service plus timing."""

    service: BrokerService
    elapsed_seconds: float
    final_virtual_time: float
    validator: Optional[TraceValidator] = None

    def snapshot(self) -> dict[str, object]:
        """JSON-friendly summary (stats block plus run timing)."""
        payload = self.service.stats.snapshot(elapsed_seconds=self.elapsed_seconds)
        payload["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        payload["final_virtual_time"] = round(self.final_virtual_time, 1)
        if self.validator is not None:
            payload["trace"] = self.validator.summary()
        return payload


def build_service(
    config: TraceConfig, sinks: Sequence[EventSink] = ()
) -> BrokerService:
    """A broker over a freshly generated environment pool."""
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=config.node_count, seed=config.seed)
    ).generate()
    return BrokerService(environment.slot_pool(), config=config.service, sinks=sinks)


def run_service_trace(
    config: TraceConfig,
    service: Optional[BrokerService] = None,
    arrivals: Optional[Iterable[tuple[float, Job]]] = None,
) -> TraceResult:
    """Stream a seeded arrival trace through a broker and drain it.

    ``arrivals`` replaces the default Poisson stream of ``config.jobs``
    jobs at ``config.rate``; ``service`` the freshly built broker.  When
    ``config`` asks for tracing the JSONL sink is closed (flushed)
    before the validator verdict, so the trace file is complete on disk
    even when :meth:`TraceValidator.check` raises — CI uploads it as the
    failure artifact.
    """
    validator = TraceValidator() if config.validate_trace else None
    if service is None:
        service = build_service(config)
    if config.trace_path is not None:
        service.events.add_sink(JsonlSink(config.trace_path))
    if validator is not None:
        service.events.add_sink(validator)
    if arrivals is None:
        generator = JobGenerator(seed=config.seed)
        arrivals = generator.iter_arrivals(config.jobs, rate=config.rate)
    started = perf_counter()
    try:
        service.process(arrivals)
        elapsed = perf_counter() - started
    finally:
        service.events.close()
    if validator is not None:
        validator.check(expect_drained=True)
    return TraceResult(
        service=service,
        elapsed_seconds=elapsed,
        final_virtual_time=service.now,
        validator=validator,
    )


@dataclass
class FlowSummary:
    """A job flow's outcome, folded from the broker's event stream.

    ``cycles`` holds one row per scheduling cycle: its index, the batch
    it searched (arrivals plus the deferred backlog), the jobs it
    scheduled, deferred and dropped, the cost it committed and its
    latest committed finish (virtual time).  A job counts as scheduled
    when it held a window to retirement and as dropped when the broker
    gave up on it after admission (``DROPPED`` or ``ABANDONED``).
    """

    cycles: list[list] = field(default_factory=list)
    scheduled_total: int = 0
    dropped_total: int = 0
    rejected_total: int = 0
    cost: RunningStat = field(default_factory=RunningStat)
    #: Deferrals each scheduled job sat through before it won its window.
    waiting_cycles: RunningStat = field(default_factory=RunningStat)
    #: Jain index over each owner's share of its jobs that were scheduled.
    service_fairness: float = 1.0

    @property
    def throughput(self) -> float:
        """Scheduled jobs per cycle."""
        return self.scheduled_total / len(self.cycles) if self.cycles else 0.0

    @property
    def drop_rate(self) -> float:
        """Rejected and dropped jobs as a fraction of all resolved jobs."""
        lost = self.dropped_total + self.rejected_total
        return lost / (self.scheduled_total + lost) if lost else 0.0


def summarize_flow(events: Iterable[Event], owners: dict[str, str]) -> FlowSummary:
    """Fold a drained broker trace into a :class:`FlowSummary`.

    ``owners`` maps every submitted job's id to its owner (events carry
    only the id).
    """
    summary = FlowSummary()
    rows: dict[int, list] = {}
    held: dict[str, float] = {}  # job id -> cost of the window it holds
    deferrals: Counter[str] = Counter()
    for event in events:
        kind, fields, job_id = event.type, event.fields, event.job_id
        row = rows.get(fields.get("cycle"))
        if kind is EventType.CYCLE_START:
            rows[fields["cycle"]] = [fields["cycle"], 0, 0, 0, 0, 0.0, 0.0]
        elif kind is EventType.CYCLE_END:
            row[1], row[2] = fields["batch"], fields["scheduled"]
        elif kind is EventType.SCHEDULED:
            held[job_id] = fields["cost"]
            row[5] += fields["cost"]
            row[6] = max(row[6], fields["window_finish"])
        elif kind is EventType.REPAIRED:
            held[job_id] = fields["cost"]
        elif kind is EventType.REPLANNED:
            del held[job_id]
        elif kind is EventType.DEFERRED:
            deferrals[job_id] += 1
            row[3] += 1
        elif kind is EventType.REJECTED:
            summary.rejected_total += 1
        elif kind is EventType.DROPPED:
            summary.dropped_total += 1
            row[4] += 1
        elif kind is EventType.ABANDONED:
            del held[job_id]
            summary.dropped_total += 1
    summary.cycles = list(rows.values())
    summary.scheduled_total = len(held)
    for job_id, cost in held.items():
        summary.cost.add(cost)
        summary.waiting_cycles.add(float(deferrals[job_id]))
    served = Counter(owners[job_id] for job_id in held)
    summary.service_fairness = jain_index(
        [served[owner] / jobs for owner, jobs in Counter(owners.values()).items()]
    )
    return summary


def run_flow(
    cycles: int,
    arrivals: int,
    node_count: int = 50,
    seed: Optional[int] = 7,
    service: ServiceConfig = ServiceConfig(),
    trace_path: Optional[str] = None,
) -> FlowSummary:
    """``arrivals`` seeded jobs at each of ``cycles`` ticks, through a broker.

    The paper's cycle-driven job flow as an arrival stream: tick ``c``
    falls at ``c * service.max_wait``, and ``batch_size`` /
    ``queue_capacity`` are raised above the worst backlog, so only the
    deadline trigger fires — once per tick, over the tick's arrivals and
    every job the previous cycle deferred.  The run always rides a
    :class:`TraceValidator` and is drained, so a returned summary
    resolves every job; ``trace_path`` archives the JSONL event stream.
    """
    if cycles < 1 or arrivals < 0:
        raise ConfigurationError(
            f"a flow needs cycles >= 1 and arrivals >= 0, got {cycles} x {arrivals}"
        )
    backlog = cycles * arrivals + 1
    config = TraceConfig(
        jobs=cycles * arrivals,
        node_count=node_count,
        seed=seed,
        service=replace(service, batch_size=backlog, queue_capacity=backlog),
        trace_path=trace_path,
        validate_trace=True,
    )
    generator = JobGenerator(seed=seed)
    stream = [
        (tick * service.max_wait, generator.generate_job(f"c{tick}-{index}"))
        for tick in range(cycles)
        for index in range(tick * arrivals, (tick + 1) * arrivals)
    ]
    collector = CollectingSink()
    run_service_trace(config, build_service(config, [collector]), arrivals=stream)
    owners = {job.job_id: job.owner for _, job in stream}
    return summarize_flow(collector.events, owners)

