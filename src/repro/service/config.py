"""Configuration of the on-line broker service.

The broker turns the repo's one-shot batch cycle into a long-running
component: jobs stream in, a bounded queue absorbs bursts, and cycles
fire either when enough jobs are pending (``batch_size``) or when the
oldest pending job has waited ``max_wait`` virtual-time units.  All
operational knobs live here so the CLI, tests and benchmarks configure
one object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.criteria import Criterion
from repro.model.errors import ConfigurationError
from repro.service.resilience.config import ResilienceConfig

if TYPE_CHECKING:
    from repro.tenancy.config import TenancyConfig


@dataclass(frozen=True)
class ServiceConfig:
    """Operational parameters of a :class:`~repro.service.BrokerService`.

    Parameters
    ----------
    queue_capacity:
        Bound on the number of pending (admitted, not yet scheduled) jobs;
        submissions beyond it are rejected at admission.
    batch_size:
        A scheduling cycle fires as soon as this many jobs are pending,
        and each cycle pops at most this many jobs from the queue.
    max_wait:
        A cycle also fires when the oldest pending job has waited this
        long (virtual time), so a trickle of submissions is not starved
        waiting for a full batch.
    workers:
        Always ``1``: phase one runs in the cycle's own thread.  Kept
        so existing ``workers=1`` callers keep working; any other value
        is rejected.
    max_deferrals:
        A job left unscheduled by this many consecutive cycles is dropped
        (the user walks away), keeping the backlog bounded.
    alternatives_per_job:
        Cap on phase-one alternatives per job (``None`` = unlimited).
    criterion:
        Phase-two selection criterion (the VO policy).
    completion_factor:
        Actual runtime as a fraction of the reserved runtime.  Values
        below 1 model jobs finishing early: the whole reservation is
        released at completion, so the unused tail becomes free capacity
        for later arrivals.
    check_invariants:
        Run :meth:`repro.model.SlotPool.assert_disjoint_per_node` after
        every cycle.  Cheap insurance by default; benchmarks disable it.
    record_assignments:
        Keep a ``job_id -> Window`` map of every assignment ever made.
        Off by default so an indefinitely running service does not grow
        memory; tests switch it on to compare runs.
    resilience:
        Live fault injection and recovery
        (:class:`~repro.service.resilience.ResilienceConfig`).  ``None``
        (the default) leaves the layer out entirely; the broker's
        behaviour — including its event traces — is then byte-identical
        to a build without the subsystem.
    tenancy:
        Multi-tenant economics
        (:class:`~repro.tenancy.TenancyConfig`): per-tenant credit
        accounts debited at commit time, DRF ordering of which tenant's
        jobs enter each cycle, and a utilization-driven price
        multiplier.  ``None`` (the default) leaves the layer out
        entirely with the same byte-identical guarantee as
        ``resilience``.
    """

    queue_capacity: int = 256
    batch_size: int = 8
    max_wait: float = 25.0
    workers: int = 1
    max_deferrals: int = 3
    alternatives_per_job: Optional[int] = 10
    criterion: Criterion = Criterion.FINISH_TIME
    completion_factor: float = 1.0
    check_invariants: bool = True
    record_assignments: bool = False
    resilience: Optional[ResilienceConfig] = None
    tenancy: Optional["TenancyConfig"] = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_wait <= 0:
            raise ConfigurationError(f"max_wait must be positive, got {self.max_wait}")
        if self.workers != 1:
            raise ConfigurationError(
                f"workers must be 1, got {self.workers}: the phase-one "
                "thread fan-out was removed"
            )
        if self.max_deferrals < 0:
            raise ConfigurationError(
                f"max_deferrals must be >= 0, got {self.max_deferrals}"
            )
        if self.alternatives_per_job is not None and self.alternatives_per_job < 1:
            raise ConfigurationError(
                f"alternatives_per_job must be >= 1, got {self.alternatives_per_job}"
            )
        if not 0.0 < self.completion_factor <= 1.0:
            raise ConfigurationError(
                f"completion_factor must be in (0, 1], got {self.completion_factor}"
            )
