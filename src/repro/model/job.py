"""Jobs, resource requests and job batches.

A *job* consists of ``node_count`` parallel tasks that must start
synchronously; its *resource request* carries everything the broker needs
to select slots: the reservation time (nominal task duration at reference
performance), hardware requirements, the maximal price per time unit ``F``
and the budget ``S``.  Following the paper, when the budget is not given
explicitly it is derived as ``S = F * t_s * n``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.model.errors import InvalidRequestError
from repro.model.resource import CpuNode, matches_spec


@dataclass(frozen=True)
class ResourceRequest:
    """User requirements for one parallel job.

    Parameters
    ----------
    node_count:
        Number ``n`` of parallel slots (tasks) to co-allocate.
    reservation_time:
        Nominal task duration ``t_s`` measured on a node of
        ``reference_performance``.  On a node of performance ``p`` the task
        occupies ``t_s * reference_performance / p`` time units.
    budget:
        Maximum total window cost ``S``.  If ``None`` it is derived from
        ``max_price_per_unit`` as ``S = F * t_s * n``; if both are ``None``
        the budget is unlimited.
    max_price_per_unit:
        Maximal acceptable price per time unit ``F`` for an individual node,
        also used to derive the default budget.  ``None`` disables the
        per-node price filter.
    reference_performance:
        Performance level at which ``reservation_time`` is measured.
    min_performance, min_clock_speed, min_ram, min_disk, required_os:
        Hardware/software constraints checked by the
        ``properHardwareAndSoftware`` filter of the AEP scan.
    deadline:
        Optional latest allowed window finish time (an "additional
        restriction" in the paper's 0-1 programming formulation).
    """

    node_count: int
    reservation_time: float
    budget: Optional[float] = None
    max_price_per_unit: Optional[float] = None
    reference_performance: float = 1.0
    min_performance: float = 0.0
    min_clock_speed: float = 0.0
    min_ram: int = 0
    min_disk: int = 0
    required_os: Optional[str] = None
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise InvalidRequestError(f"node_count must be >= 1, got {self.node_count}")
        if not self.reservation_time > 0:
            raise InvalidRequestError(
                f"reservation_time must be positive, got {self.reservation_time}"
            )
        if not self.reference_performance > 0:
            raise InvalidRequestError(
                f"reference_performance must be positive, got {self.reference_performance}"
            )
        if self.budget is not None and not self.budget >= 0:
            raise InvalidRequestError(f"budget must be >= 0, got {self.budget}")
        if self.max_price_per_unit is not None and not self.max_price_per_unit >= 0:
            raise InvalidRequestError(
                f"max_price_per_unit must be >= 0, got {self.max_price_per_unit}"
            )
        for name in ("min_performance", "min_clock_speed", "min_ram", "min_disk"):
            value = getattr(self, name)
            if not value >= 0:
                raise InvalidRequestError(f"{name} must be >= 0, got {value}")
        if self.deadline is not None and not self.deadline >= 0:
            raise InvalidRequestError(f"deadline must be >= 0, got {self.deadline}")

    @property
    def effective_budget(self) -> float:
        """The budget ``S``; ``inf`` when unconstrained.

        Derived as ``S = F * t_s * n`` when only ``max_price_per_unit`` is
        given, matching the paper's "maximal job budget is counted as
        S = F t_s n".
        """
        if self.budget is not None:
            return self.budget
        if self.max_price_per_unit is not None:
            return self.max_price_per_unit * self.reservation_time * self.node_count
        return float("inf")

    def task_runtime_on(self, node: CpuNode) -> float:
        """Duration of one task of this request on ``node``."""
        return node.task_runtime(self.reservation_time, self.reference_performance)

    def node_matches(self, node: CpuNode) -> bool:
        """The ``properHardwareAndSoftware`` predicate for this request."""
        return matches_spec(
            node,
            min_performance=self.min_performance,
            min_clock_speed=self.min_clock_speed,
            min_ram=self.min_ram,
            min_disk=self.min_disk,
            required_os=self.required_os,
            max_price_per_unit=self.max_price_per_unit,
        )


@dataclass(frozen=True)
class Job:
    """A batch job: an identifier, a resource request and a priority.

    Higher ``priority`` jobs are processed earlier by the batch scheduling
    scheme ("higher priority jobs are processed first", Section 2.1).
    """

    job_id: str
    request: ResourceRequest
    priority: int = 0
    owner: str = "anonymous"

    def __post_init__(self) -> None:
        if not self.job_id:
            raise InvalidRequestError("job_id must be a non-empty string")


@dataclass
class JobBatch:
    """An ordered batch of jobs scheduled within one cycle.

    Iteration yields jobs by descending priority with the submission order
    as a stable tie-break, which is the processing order of the paper's
    scheduling scheme.
    """

    jobs: list[Job] = field(default_factory=list)

    def add(self, job: Job) -> None:
        """Add a job; duplicate ids are rejected."""
        if any(existing.job_id == job.job_id for existing in self.jobs):
            raise InvalidRequestError(f"duplicate job_id {job.job_id!r} in batch")
        self.jobs.append(job)

    def by_priority(self) -> list[Job]:
        """Jobs sorted by descending priority (stable)."""
        return sorted(self.jobs, key=lambda job: -job.priority)

    def __iter__(self):
        return iter(self.by_priority())

    def __len__(self) -> int:
        return len(self.jobs)
