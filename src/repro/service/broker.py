"""The on-line broker service: streaming intake over a shared slot pool.

This is the long-running counterpart of the one-shot batch cycle
(:class:`~repro.scheduling.BatchScheduler`): jobs are submitted one at a
time through admission control into a bounded queue; a size-or-deadline
trigger coalesces them into scheduling cycles; each cycle is a fixed
list of stages (``_run_cycle``) — phase one for every job on one
read-only pool snapshot, the phase-two combination, the
commit onto the shared pool — that consult a tenancy and a resilience
participant, each a do-nothing stand-in when its layer is off.  A
virtual-clock lifecycle retires finished jobs and returns their slots
via :meth:`~repro.model.SlotPool.release`, so the service can run
indefinitely without fragmenting or leaking the pool.

Threading model: every public method takes the broker lock, and
nothing inside the lock runs concurrently — so the shared pool is
mutated (trim, cut, release) strictly sequentially.  Virtual time is
monotone and entirely caller-driven (``advance_to``), which keeps runs
reproducible: the assignments of a run depend only on the submitted
jobs, their times and the configuration — never on wall-clock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Optional, Sequence

from repro.core.algorithms.base import Alternative
from repro.core.algorithms.csa import CSA
from repro.model.errors import SchedulingError
from repro.model.job import Job, JobBatch
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import SlotPool
from repro.model.window import Window
from repro.scheduling.metascheduler import BatchScheduler, CycleReport
from repro.service.admission import AdmissionController, AdmissionDecision
from repro.service.config import ServiceConfig
from repro.service.events import EventEmitter, EventSink, EventType
from repro.service.lifecycle import JobLifecycle
from repro.service.participants import NO_RESILIENCE, NO_TENANCY
from repro.service.queueing import BoundedJobQueue, CycleTrigger, QueuedJob
from repro.service.resilience.manager import ResilienceManager
from repro.service.stats import ServiceStats


def _earliest(*times: Optional[float]) -> Optional[float]:
    """The smallest of the times that are set, ``None`` when none is."""
    known = [time for time in times if time is not None]
    return min(known) if known else None


@dataclass
class _Cycle:
    """What one scheduling cycle's stages hand each other."""

    index: int
    started: float  # wall clock (perf_counter) at entry
    queued: dict[str, QueuedJob] = field(default_factory=dict)  # popped, by job id
    multiplier: float = 1.0  # live price the whole cycle is planned and charged at
    batch: JobBatch = field(default_factory=JobBatch)
    # Phase one's alternatives: a CSA sweep's rows, which live only as
    # long as the cycle; phase two materializes the ones it chooses.
    alternatives: dict[str, list[Alternative]] = field(default_factory=dict)
    search_seconds: float = 0.0
    report: Optional[CycleReport] = None
    committed: int = 0
    leftover: list[str] = field(default_factory=list)  # no window, or an unpaid one


class BrokerService:
    """Streaming job intake, cycle batching, and slot lifecycle.

    Parameters
    ----------
    pool:
        The shared slot pool the service owns and mutates (commits, trims,
        releases).  Typically ``environment.slot_pool()``.
    config:
        Operational knobs (queue bound, batching, policy).
    scheduler:
        The two-phase cycle kernel; by default CSA phase one capped at
        ``config.alternatives_per_job`` with ``config.criterion`` phase two.
    clock_start:
        Initial virtual time; free time before it is the pool's first
        floor (:meth:`~repro.model.SlotPool.advance_floor`): no read of
        the pool sees it.
    sinks:
        Event consumers (ring buffer, JSONL writer, trace validator, ...)
        fed every job/cycle state transition; empty means tracing is a
        no-op.  All components share one emitter, so sequence numbers
        totally order the trace.  Every emitted field is deterministic
        for a given job stream and configuration except ``wall_``-prefixed
        timing fields.
    horizon_source:
        Optional rolling-horizon slot supply
        (:class:`~repro.environment.RollingHorizonSource`).  When set,
        every clock step also tops the pool up to ``now + lead`` — the
        floor garbage-collects the past while the source publishes the
        future, so the pool stays inside a bounded window over
        unbounded virtual time.  ``None`` (the default) keeps the
        paper's fixed-interval behaviour.
    tenancy:
        Optional shared :class:`~repro.tenancy.TenancyManager`: a
        federation passes one to every shard broker so balances and the
        pricing EWMA are global; else one is built from ``config.tenancy``.
    """

    def __init__(
        self,
        pool: SlotPool,
        config: Optional[ServiceConfig] = None,
        scheduler: Optional[BatchScheduler] = None,
        clock_start: float = 0.0,
        sinks: Sequence[EventSink] = (),
        horizon_source=None,
        tenancy=None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.pool = pool
        if scheduler is None:
            scheduler = BatchScheduler(
                search=CSA(max_alternatives=self.config.alternatives_per_job),
                criterion=self.config.criterion,
                alternatives_per_job=self.config.alternatives_per_job,
            )
        self.scheduler = scheduler
        self.stats = ServiceStats()
        self.assignments: dict[str, Window] = {}
        self.last_report: Optional[CycleReport] = None
        self.events = EventEmitter(sinks, clock=lambda: self._now)
        self._admission = AdmissionController(emitter=self.events)
        self._queue = BoundedJobQueue(self.config.queue_capacity, emitter=self.events)
        self._trigger = CycleTrigger(self.config.batch_size, self.config.max_wait)
        self._lifecycle = JobLifecycle(emitter=self.events)
        self._lock = threading.RLock()
        self._now = clock_start
        #: Multi-tenant economics (credit ledger, DRF ordering, pricing).
        #: A shared manager (federation) wins over building one from the
        #: config; with neither, the do-nothing stand-in keeps every path
        #: byte-identical to a broker without the subsystem.  Imported
        #: lazily: the optional package stays out of the default graph.
        if tenancy is None and self.config.tenancy is not None:
            from repro.tenancy.manager import TenancyManager

            tenancy = TenancyManager(self.config.tenancy)
        self._tenancy = NO_TENANCY if tenancy is None else tenancy
        #: Live fault injection + recovery; the stand-in (the default)
        #: samples no faults and buffers no retries, so every clock and
        #: cycle path — and the traces — match a broker without the layer.
        self._resilience = NO_RESILIENCE
        if self.config.resilience is not None:
            self._resilience = ResilienceManager(
                self.config.resilience,
                pool=self.pool,
                lifecycle=self._lifecycle,
                queue=self._queue,
                stats=self.stats,
                emitter=self.events,
                assignments=self.assignments,
                completion_factor=self.config.completion_factor,
                record_assignments=self.config.record_assignments,
                tenancy=self._tenancy,
            )
        self._horizon = horizon_source
        self._retire_and_trim()

    # ``with broker:`` stays valid for existing callers; the broker holds
    # no threads or handles, so leaving the block releases nothing.
    def __enter__(self) -> "BrokerService":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Jobs admitted but not yet scheduled."""
        return self._queue.depth

    @property
    def active_count(self) -> int:
        """Jobs scheduled and not yet retired."""
        return self._lifecycle.active_count

    @property
    def resilience(self):
        """The resilience manager, or ``None`` when the layer is off."""
        return None if self._resilience is NO_RESILIENCE else self._resilience

    @property
    def tenancy(self):
        """The tenancy manager, or ``None`` when the layer is off."""
        return None if self._tenancy is NO_TENANCY else self._tenancy

    @property
    def is_idle(self) -> bool:
        """No queued jobs, no active windows, no pending retries."""
        with self._lock:
            return (
                self._queue.depth == 0
                and self._lifecycle.active_count == 0
                and self._resilience.pending_retries == 0
            )

    def next_event_time(self) -> Optional[float]:
        """Earliest virtual time at which this broker has work to do.

        The minimum over the cycle trigger's next fire time, the next
        job completion, and the next retry wake-up; ``None`` when idle.
        A federation stepping several shard brokers on one shared clock
        uses this to advance in lockstep without skipping any shard's
        due cycle or retirement.
        """
        with self._lock:
            due = _earliest(
                self._trigger.next_fire_time(self._queue, self._now),
                self._lifecycle.next_completion(),
                self._resilience.next_wakeup(),
            )
            return None if due is None else max(self._now, due)

    def in_flight_ids(self) -> set[str]:
        """Ids of every job the broker currently owns in any form.

        Queued, actively holding a window, or waiting out a replan
        backoff — the set admission checks duplicates against, exposed
        so a federation can run the same check across shards.
        """
        with self._lock:
            return (
                self._queue.job_ids()
                | self._lifecycle.active_ids()
                | self._resilience.pending_ids()
            )

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> AdmissionDecision:
        """Offer one job to the service; returns the admission outcome.

        Admission is evaluated against the *current* pool and queue: a
        full queue, a duplicate id, too few matching nodes, or a budget
        below the cheapest possible window all reject immediately, so the
        caller learns the fate of hopeless jobs at submission rather than
        after cycles of deferral.
        """
        with self._lock:
            self.stats.submitted += 1
            self.events.emit(EventType.SUBMITTED, job_id=job.job_id)
            decision = self._admission.evaluate(
                job,
                self.pool,
                queue_depth=self._queue.depth,
                queue_capacity=self._queue.capacity,
                # A replanned job waiting out its backoff is still in
                # flight: resubmitting its id would fork the job, so
                # in_flight_ids includes the retry buffer.
                known_ids=self.in_flight_ids(),
                price_multiplier=self._tenancy.price_multiplier,
                credit_balance=self._tenancy.admission_balance(job.owner),
            )
            if decision.admitted:
                self._queue.push(job, self._now)
                self.stats.admitted += 1
                if self._trigger.should_fire(self._queue, self._now):
                    # Build the snapshot here, so the cycle this job
                    # makes due need not.
                    self.pool.as_arrays()
            else:
                assert decision.reason is not None
                self.stats.record_rejection(decision.reason.value)
            self.stats.queue_depth = self._queue.depth
            return decision

    def cancel(self, job_id: str) -> bool:
        """Withdraw a *queued* job; returns whether anything was removed.

        Only pending (queued, not yet scheduled) jobs can be cancelled —
        a scheduled job's window is committed on the pool and runs to
        retirement.  The cancelled job is traced as DROPPED with cause
        ``cancelled`` so the conservation laws still see a terminal state.
        """
        with self._lock:
            removed = self._queue.remove(job_id)
            if removed is None:
                return False
            self.stats.queue_depth = self._queue.depth
            self._drop(job_id, "cancelled", removed.deferrals)
            return True

    def _drop(self, job_id: str, cause: str, deferrals: int, **fields: object) -> None:
        """Seal a pending job's fate as DROPPED (the one place that does)."""
        self.stats.dropped += 1
        self.events.emit(
            EventType.DROPPED, job_id=job_id, **fields, cause=cause, deferrals=deferrals
        )
        self._resilience.forget(job_id)

    def evacuate(self, cause: str = "shard_lost") -> list[Job]:
        """Empty the broker for teardown; returns every in-flight job.

        The shard-death path of the federation: queued jobs and buffered
        retries are DROPPED (cause ``cause``), and every active window is
        REVOKED in full and then ABANDONED — its node-seconds are
        forfeited, never released, because the pool underneath is gone.
        The returned jobs (intake order: queued, retry-buffered, then
        active by window start) are the candidates the caller may
        re-route elsewhere.  The broker stays structurally usable but
        owns no work afterwards.
        """
        with self._lock:
            evacuated: list[Job] = []
            while self._queue.depth > 0:
                for item in self._queue.pop_batch(self._queue.depth):
                    self._drop(item.job.job_id, cause, item.deferrals)
                    evacuated.append(item.job)
            for job in self._resilience.drain_pending():
                self._drop(job.job_id, cause, 0)
                evacuated.append(job)
            for entry in self._lifecycle.entries():
                job_id, window = entry.job.job_id, entry.window
                node_seconds = window.processor_time
                self.events.emit(
                    EventType.REVOKED,
                    job_id=job_id,
                    cause=cause,
                    nodes=window.nodes(),
                    node_seconds=node_seconds,
                )
                # The whole window is forfeited: partial refund on its full
                # escrowed cost, then close out the rest (nothing runnable
                # survives the shard).
                self._tenancy.on_forfeit(job_id, window.total_cost, self.events)
                self._tenancy.on_release(job_id, self.events)
                self.events.emit(
                    EventType.ABANDONED,
                    job_id=job_id,
                    cause=cause,
                    released_node_seconds=0.0,
                )
                self.stats.revocations += 1
                self.stats.legs_revoked += len(window.slots)
                self.stats.abandoned += 1
                self.stats.record_forfeit(entry.job.owner, node_seconds)
                self._lifecycle.cancel(job_id)
                self.assignments.pop(job_id, None)
                self._resilience.forget(job_id)
                evacuated.append(entry.job)
            self.stats.queue_depth = 0
            self.stats.active_jobs = 0
            return evacuated

    # ------------------------------------------------------------------
    # Clock driving
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """Run every cycle due at the current time; returns cycles run.

        Call after :meth:`submit` to honour the batch-size trigger
        immediately instead of waiting for the next clock advance.
        """
        with self._lock:
            ran = 0
            while self._trigger.should_fire(self._queue, self._now):
                self._run_cycle()
                ran += 1
            return ran

    def _step_clock(self, target: float) -> None:
        """Move the clock to ``target``, injecting faults along the way.

        The interval ``[now, target)`` is sampled for local-job arrivals
        on the active nodes (none when the resilience layer is off) and
        each preemption is applied *at its arrival time*: jobs completing
        before it are retired first (their windows are no longer
        revocable), then the compromised windows are recovered — so
        revocation timing does not depend on how coarsely callers step.
        Retries whose backoff has elapsed by ``target`` re-enter the queue.
        """
        if target > self._now + TIME_EPSILON:
            for hit in self._resilience.sample_interval(self._now, target):
                self._now = max(self._now, hit.arrival)
                self._retire_and_trim()
                self._resilience.apply(hit, self._now)
        self._now = max(self._now, target)
        self._resilience.release_due_retries(self._now)

    def advance_to(self, now: float) -> int:
        """Advance the virtual clock, firing cycles as they come due.

        Cycles triggered by the max-wait deadline fire *at* their deadline
        (not at ``now``), so batching behaviour does not depend on how
        coarsely the caller steps the clock.  Finished jobs are retired,
        the pool's floor raised, and — with a resilience layer — due
        retry re-enqueues and sampled revocations applied in order.
        Returns the number of cycles run.  The clock is monotone: moving
        backwards raises.
        """
        if now < self._now - TIME_EPSILON:
            raise SchedulingError(
                f"virtual clock must be monotone: at {self._now}, got {now}"
            )
        with self._lock:
            ran = 0
            while True:
                fire = self._trigger.next_fire_time(self._queue, self._now)
                target = _earliest(fire, self._resilience.next_wakeup())
                if target is None or target > now + TIME_EPSILON:
                    break
                self._step_clock(target)
                if fire is not None and fire <= target + TIME_EPSILON:
                    self._run_cycle()
                    ran += 1
            self._step_clock(now)
            self._retire_and_trim()
            return ran

    def drain(self, max_cycles: int = 100_000) -> float:
        """Run until the queue is empty and every job retired.

        Advances the clock to each pending trigger, retry wake-up or
        completion in turn; deferral and retry caps guarantee progress.
        Returns the final virtual time.
        """
        with self._lock:
            for _ in range(max_cycles):
                if self.is_idle:
                    return self._now
                wake = self._resilience.next_wakeup()
                fire = self._trigger.next_fire_time(self._queue, self._now)
                if fire is not None:
                    # Step to an earlier retry wake-up first: re-enqueues happen
                    # at their ready time (as in advance_to), not at the cycle.
                    target = _earliest(fire, wake)
                    self._step_clock(target)
                    if fire <= target + TIME_EPSILON:
                        self._run_cycle()
                    continue
                due = _earliest(self._lifecycle.next_completion(), wake)
                assert due is not None  # queue empty => active or retrying
                self._step_clock(due)
                self._retire_and_trim()
            raise SchedulingError(
                f"drain() did not converge within {max_cycles} cycles"
            )

    def process(self, arrivals: Iterable[tuple[float, Job]]) -> ServiceStats:
        """Feed a timed arrival stream through the service and drain it.

        The scripted-trace entry point: for each ``(time, job)`` pair the
        clock advances to ``time`` (firing due cycles), the job is
        submitted, and immediate batch-size triggers are pumped.  After
        the stream ends the service drains completely.
        """
        for arrival_time, job in arrivals:
            self.advance_to(arrival_time)
            self.submit(job)
            self.pump()
        self.drain()
        return self.stats

    # ------------------------------------------------------------------
    # The cycle
    # ------------------------------------------------------------------
    def _retire_and_trim(self) -> None:
        """Drop past free time and retire finished jobs (releasing slots).

        Past free time is dropped by raising the pool's floor to ``now``
        (O(1)), before the retirements, so every read — the releases'
        own checks included — sees the pool without it.  Only the cycle
        deletes the slots the floor killed (:meth:`_run_cycle`).  With a
        rolling-horizon source attached, this is also where the future
        is published: the pool is topped up to ``now + lead``, so each
        step leaves it inside the source's bounded window.
        """
        self.pool.advance_floor(self._now)
        retired = self._lifecycle.retire_due(self._now, self.pool)
        self.stats.retired += len(retired)
        for entry in retired:
            # Goodput numerator: node-seconds actually delivered to jobs
            # that ran to completion (repaired windows count in full).
            self.stats.delivered_node_seconds += entry.window.processor_time
            self._resilience.forget(entry.job.job_id)
            # A clean retirement settles the escrow: the window's cost
            # becomes provider revenue, no event to replay.
            self._tenancy.on_retired(entry.job.job_id)
        if self._horizon is not None:
            self.stats.slots_published += self._horizon.ensure(self.pool, self._now)
        self.stats.active_jobs = self._lifecycle.active_count

    def _run_cycle(self) -> CycleReport:
        """One scheduling cycle at the current virtual time (locked).

        The paper's loop, one stage per line: collect a batch, search
        alternatives (phase one), choose a combination (phase two),
        commit it, then requeue or drop what is left.
        """
        cycle = _Cycle(index=self.stats.cycles, started=perf_counter())
        self._retire_and_trim()
        self.pool.trim_before(self._now)
        self.events.emit(
            EventType.CYCLE_START,
            cycle=cycle.index,
            queue_depth=self._queue.depth,
            active_jobs=self._lifecycle.active_count,
        )
        self._drain_batch(cycle)
        self._price_batch(cycle)
        self._search(cycle)
        cycle.report = self.scheduler.plan(
            cycle.batch, self.pool, alternatives=cycle.alternatives
        )
        self._commit(cycle)
        self._settle(cycle)
        self._close_cycle(cycle)
        return cycle.report

    def _drain_batch(self, cycle: _Cycle) -> None:
        """Pop this cycle's jobs off the queue, in the tenancy's order."""
        popped = self._tenancy.drain_batch(self._queue, self.config.batch_size)
        cycle.queued = {item.job.job_id: item for item in popped}

    def _price_batch(self, cycle: _Cycle) -> None:
        """Build the batch phase one sees: live-priced and aged."""
        cycle.multiplier = self._tenancy.price_multiplier
        for item in cycle.queued.values():
            # Ageing: every deferral bumps the priority, so waiting jobs
            # eventually win conflicts.
            cycle.batch.add(
                Job(
                    item.job.job_id,
                    self._tenancy.live_request(item.job.request, cycle.multiplier),
                    priority=item.job.priority + item.deferrals,
                    owner=item.job.owner,
                )
            )

    def _search(self, cycle: _Cycle) -> None:
        """Phase one: alternatives per job over one pool snapshot, as
        rows of the snapshot's scan plans (windows only for searches
        without a sweep); phase two turns the chosen ones into windows."""
        search_started = perf_counter()
        cycle.alternatives = self.scheduler.find_alternatives(
            cycle.batch, self.pool.copy()
        )
        cycle.search_seconds = perf_counter() - search_started
        self.stats.search_seconds += cycle.search_seconds
        self.stats.windows_found += sum(
            len(found) for found in cycle.alternatives.values()
        )
        # Per-broker grouping telemetry: searches the request-class grouping
        # collapsed (process-wide scan_counters cannot attribute them).  A
        # search that does not group runs once per job.
        self.stats.phase1_jobs += len(cycle.batch)
        self.stats.phase1_classes += (
            len({job.request for job in cycle.batch.jobs})
            if self.scheduler.search.deterministic
            else len(cycle.batch)
        )

    def _commit(self, cycle: _Cycle) -> None:
        """Charge and commit the phase-two windows; start their lifecycles."""
        cycle.leftover = list(cycle.report.unscheduled)
        for job_id, window in cycle.report.scheduled.items():
            job = cycle.queued[job_id].job
            if not self._tenancy.charge_commit(
                job, window, self.events, multiplier=cycle.multiplier
            ):
                # The tenant cannot pay for the window it won: the commit
                # is withheld (phase-two windows are disjoint, so skipping
                # one never invalidates the others) and the job is settled.
                cycle.leftover.append(job_id)
                continue
            # Commit by span containment: earlier commits this cycle may
            # have replaced a leg's snapshot slot with its remainders.
            self.pool.commit_window(window)
            self._lifecycle.start(
                job, window, self._now, completion_factor=self.config.completion_factor
            )
            if self.config.record_assignments:
                self.assignments[job_id] = window
            self.events.emit(
                EventType.SCHEDULED,
                job_id=job_id,
                cycle=cycle.index,
                window_start=window.start,
                window_finish=window.finish,
                cost=window.total_cost,
                nodes=window.nodes(),
                node_seconds=window.processor_time,
            )
            self._resilience.on_scheduled(job_id, self._now)
            cycle.committed += 1
        self.stats.scheduled += cycle.committed

    def _settle(self, cycle: _Cycle) -> None:
        """Requeue every leftover job one deferral older, or drop it."""
        for job_id in cycle.leftover:
            item = cycle.queued[job_id]
            deferrals = item.deferrals + 1
            if deferrals > self.config.max_deferrals:
                self._drop(job_id, "max_deferrals", item.deferrals, cycle=cycle.index)
            elif not self._queue.push(item.job, self._now, deferrals=deferrals):
                # The re-push can meet a full queue (e.g. the bound was
                # shrunk while the batch was in flight); counting the job as
                # dropped keeps admitted = scheduled + dropped + queued —
                # ignoring the push result used to lose the job untraced.
                self._drop(job_id, "queue_full", item.deferrals, cycle=cycle.index)
            else:
                self.stats.deferred += 1
                self.events.emit(
                    EventType.DEFERRED,
                    job_id=job_id,
                    cycle=cycle.index,
                    deferrals=deferrals,
                )

    def _close_cycle(self, cycle: _Cycle) -> None:
        """Book the cycle: counters, latency, CYCLE_END, invariants."""
        self.stats.cycles += 1
        self.stats.queue_depth = self._queue.depth
        self.stats.active_jobs = self._lifecycle.active_count
        cycle_seconds = perf_counter() - cycle.started
        self.stats.cycle_latency.add(cycle_seconds)
        self.events.emit(
            EventType.CYCLE_END,
            cycle=cycle.index,
            batch=len(cycle.queued),
            scheduled=cycle.committed,
            unscheduled=len(cycle.leftover),
            queue_depth=self._queue.depth,
            active_jobs=self._lifecycle.active_count,
            wall_search_seconds=cycle.search_seconds,
            wall_cycle_seconds=cycle_seconds,
            # The tenancy's closing entry: the pricing EWMA update.
            **self._tenancy.cycle_end_fields(self._lifecycle, self.pool),
        )
        if self.config.check_invariants:
            self.pool.assert_disjoint_per_node()
        self.last_report = cycle.report
