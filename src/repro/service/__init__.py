"""On-line broker service: streaming intake over the batch-cycle kernel.

The service layer turns the one-shot reproduction tooling into a
long-running component: admission-controlled streaming submissions, a
bounded queue coalesced into scheduling cycles (size-or-deadline
batching), phase-one window search over one pool snapshot per cycle, locked
commits onto a shared :class:`~repro.model.SlotPool`, and a virtual-clock
slot lifecycle that returns finished jobs' reservations to the pool.
See ``docs/architecture.md`` ("Service layer").
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    RejectionReason,
    cheapest_feasible_cost,
)
from repro.service.broker import BrokerService
from repro.service.config import ServiceConfig
from repro.service.driver import (
    FlowSummary,
    TraceConfig,
    TraceResult,
    build_service,
    run_flow,
    run_service_trace,
)
from repro.service.events import (
    CollectingSink,
    Event,
    EventEmitter,
    EventSink,
    EventType,
    JsonlSink,
    RingBufferSink,
    deterministic_trace,
    load_trace,
)
from repro.service.lifecycle import ActiveJob, JobLifecycle
from repro.service.queueing import BoundedJobQueue, CycleTrigger, QueuedJob
# Resilience names are imported from the subpackage's leaf modules, not
# from the subpackage itself: when an import chain *starts* inside
# repro.service.resilience (whose manager module initialises this
# package), the subpackage is still partially initialised here, but its
# config/injector/policies modules are already complete.
# ResilienceManager lives in repro.service.resilience.
from repro.service.resilience.config import POLICY_NAMES, ResilienceConfig
from repro.service.resilience.injector import NodePreemption, RevocationInjector
from repro.service.resilience.policies import (
    AbandonPolicy,
    RecoveryPolicy,
    RepairPolicy,
    ReplanPolicy,
    RevocationContext,
)
from repro.service.signals import graceful_interrupt
from repro.service.stats import (
    LatencyTracker,
    ServiceStats,
    percentile,
    percentile_of_sorted,
)
from repro.service.tracing import (
    CreditReplay,
    TraceInvariantError,
    TraceValidator,
    validate_trace_file,
)

__all__ = [
    "AbandonPolicy",
    "ActiveJob",
    "AdmissionController",
    "AdmissionDecision",
    "BoundedJobQueue",
    "BrokerService",
    "build_service",
    "cheapest_feasible_cost",
    "CollectingSink",
    "CreditReplay",
    "CycleTrigger",
    "deterministic_trace",
    "Event",
    "EventEmitter",
    "EventSink",
    "EventType",
    "FlowSummary",
    "graceful_interrupt",
    "JobLifecycle",
    "JsonlSink",
    "LatencyTracker",
    "load_trace",
    "NodePreemption",
    "percentile",
    "percentile_of_sorted",
    "POLICY_NAMES",
    "QueuedJob",
    "RecoveryPolicy",
    "RejectionReason",
    "RepairPolicy",
    "ReplanPolicy",
    "ResilienceConfig",
    "RevocationContext",
    "RevocationInjector",
    "RingBufferSink",
    "run_flow",
    "run_service_trace",
    "ServiceConfig",
    "ServiceStats",
    "TraceConfig",
    "TraceInvariantError",
    "TraceResult",
    "TraceValidator",
    "validate_trace_file",
]
