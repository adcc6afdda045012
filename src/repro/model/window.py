"""Co-allocation windows — the object the slot-selection algorithms return.

A *window* is a set of ``n`` slots on distinct nodes reserved from a common
(synchronous) start time.  Because nodes are heterogeneous, each task
occupies its node for a different duration, so the window has the "rough
right edge" of the paper's Fig. 1.  The window's aggregate characteristics
(start, finish, runtime, processor time, cost, energy) are exactly the
criteria the evaluated algorithms optimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from repro.model.errors import WindowValidationError
from repro.model.job import ResourceRequest
from repro.model.slot import TIME_EPSILON, Slot, fits_from, last_start

#: Relative slack admitted when comparing costs against the budget, to keep
#: float summation order from flipping feasibility decisions.  It enters
#: arithmetic only through :func:`budget_limit`.
COST_EPSILON = 1e-6


def left_sum(values: Iterable[float]) -> float:
    """The float sum of ``values``, added left to right from ``0.0``.

    Every cost, time and energy total that feeds a verdict, a criterion
    value or a trace is summed here.  Builtin ``sum()`` is compensated
    from CPython 3.12 on, so it would round differently from the
    kernel's inline ascending loops on one interpreter and not another.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def budget_limit(budget: float) -> float:
    """The largest cost sum that is "within ``budget``": the budget
    widened by ``COST_EPSILON`` relative to ``1 + |budget|``.  Every
    budget verdict (searches, :meth:`Window.validate`, admission and
    repair) compares a :func:`left_sum` against this.  An infinite budget
    stays infinite."""
    if budget == float("inf"):
        return budget
    return budget + COST_EPSILON * (1.0 + abs(budget))


@dataclass(frozen=True)
class WindowSlot:
    """One leg of a window: a slot plus the reservation carved out of it.

    ``required_time`` is the task duration on the slot's node and ``cost``
    the usage cost of that duration; both are precomputed once when the slot
    enters the AEP extended window, so criterion extractors work on plain
    numbers.
    """

    slot: Slot
    required_time: float
    cost: float

    @classmethod
    def for_request(cls, slot: Slot, request: ResourceRequest) -> "WindowSlot":
        """Build the window leg for ``slot`` under ``request``."""
        duration = request.task_runtime_on(slot.node)
        return cls(slot=slot, required_time=duration, cost=slot.node.usage_cost(duration))

    def fits_from(self, start: float, deadline: Optional[float] = None) -> bool:
        """Whether the reservation, started at ``start``, fits into the slot
        and finishes by ``deadline`` (:func:`~repro.model.slot.fits_from`)."""
        return fits_from(last_start(self.slot.end, self.required_time, deadline), start)

    def energy(self) -> float:
        """Energy drawn by the task on this leg (see :meth:`CpuNode.power`)."""
        return self.slot.node.power() * self.required_time


@dataclass(frozen=True)
class Window:
    """A co-allocation of ``len(slots)`` tasks starting at ``start``."""

    start: float
    slots: tuple[WindowSlot, ...]

    def __post_init__(self) -> None:
        if not self.slots:
            raise WindowValidationError("a window must contain at least one slot")

    # ------------------------------------------------------------------
    # Aggregate characteristics (the optimization criteria of Section 3).
    # The four that phase two compares windows by are computed once per
    # window: a frozen dataclass still has an instance ``__dict__`` for
    # ``cached_property`` to fill, and equality, hash and repr read the
    # fields only.
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of co-allocated slots ``n``."""
        return len(self.slots)

    @cached_property
    def runtime(self) -> float:
        """Execution time: the length of the longest composing reservation.

        "The time length of an allocated window W is defined by the
        execution time of the task that is using the slowest CPU node."
        """
        return max(ws.required_time for ws in self.slots)

    @cached_property
    def finish(self) -> float:
        """Completion time of the window: ``start + runtime``."""
        return self.start + self.runtime

    @cached_property
    def processor_time(self) -> float:
        """Total node (CPU) time: the sum of the reservations' lengths."""
        return left_sum(ws.required_time for ws in self.slots)

    @cached_property
    def total_cost(self) -> float:
        """Total allocation cost: the sum of the individual slot costs."""
        return left_sum(ws.cost for ws in self.slots)

    @property
    def total_energy(self) -> float:
        """Total energy consumption of the co-allocation."""
        return left_sum(ws.energy() for ws in self.slots)

    @property
    def idle_time(self) -> float:
        """Co-allocation waste: node-time reserved but idle.

        In a tightly coupled parallel job every task effectively occupies
        its allocation until the *longest* task finishes (early tasks
        block on the stragglers), so a leg of duration ``t`` wastes
        ``runtime - t`` node-time units — the area above the "rough right
        edge" of the paper's Fig. 1.  Zero iff all legs run equally long.
        """
        runtime = self.runtime
        return left_sum(runtime - ws.required_time for ws in self.slots)

    def nodes(self) -> list[int]:
        """Identifiers of the nodes used, in slot order."""
        return [ws.slot.node.node_id for ws in self.slots]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, request: Optional[ResourceRequest] = None) -> None:
        """Check the structural invariants of a co-allocation window.

        Raises :class:`WindowValidationError` naming the violated invariant.
        Every leg must start within its slot and pass
        :meth:`WindowSlot.fits_from` at the window start — by the
        request's deadline when ``request`` is given, which also checks
        the request-level constraints (size, budget, per-node durations
        and hardware matching).
        """
        node_ids = self.nodes()
        if len(set(node_ids)) != len(node_ids):
            raise WindowValidationError(f"window reuses nodes: {sorted(node_ids)}")
        deadline = None if request is None else request.deadline
        for ws in self.slots:
            node_id = ws.slot.node.node_id
            if ws.required_time < 0:
                raise WindowValidationError(
                    f"negative required_time {ws.required_time} on node {node_id}"
                )
            if self.start < ws.slot.start - TIME_EPSILON:
                raise WindowValidationError(
                    f"window start {self.start} precedes slot start {ws.slot.start} "
                    f"on node {node_id}"
                )
            if not ws.fits_from(self.start, deadline):
                raise WindowValidationError(
                    f"slot on node {node_id} cannot host "
                    f"[{self.start}, {self.start + ws.required_time}): slot is "
                    f"[{ws.slot.start}, {ws.slot.end})"
                    + ("" if deadline is None else f", deadline {deadline}")
                )
        if request is not None:
            if self.size != request.node_count:
                raise WindowValidationError(
                    f"window has {self.size} slots, request needs {request.node_count}"
                )
            budget = request.effective_budget
            if self.total_cost > budget_limit(budget):
                raise WindowValidationError(
                    f"window cost {self.total_cost} exceeds budget {budget}"
                )
            for ws in self.slots:
                expected = request.task_runtime_on(ws.slot.node)
                if abs(ws.required_time - expected) > TIME_EPSILON:
                    raise WindowValidationError(
                        f"required_time {ws.required_time} on node "
                        f"{ws.slot.node.node_id} does not match request "
                        f"({expected})"
                    )
                if not request.node_matches(ws.slot.node):
                    raise WindowValidationError(
                        f"node {ws.slot.node.node_id} fails the hardware/software "
                        "requirements of the request"
                    )

    def is_valid(self, request: Optional[ResourceRequest] = None) -> bool:
        """Boolean twin of :meth:`validate`."""
        try:
            self.validate(request)
        except WindowValidationError:
            return False
        return True

    def conflicts_with(self, other: "Window") -> bool:
        """Whether two windows claim overlapping time on a common node.

        Used by the batch combination selector to reject slot combinations
        that reuse the same physical time span.
        """
        mine = {
            ws.slot.node.node_id: (self.start, self.start + ws.required_time)
            for ws in self.slots
        }
        for ws in other.slots:
            span = mine.get(ws.slot.node.node_id)
            if span is None:
                continue
            other_start, other_end = other.start, other.start + ws.required_time
            if span[0] < other_end - TIME_EPSILON and other_start < span[1] - TIME_EPSILON:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Window(start={self.start:g}, n={self.size}, runtime={self.runtime:g}, "
            f"cost={self.total_cost:g}, nodes={self.nodes()})"
        )
