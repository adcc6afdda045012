"""Time slots: free spans on CPU nodes offered for reservation.

A slot is the elementary unit the whole paper operates on: a contiguous
span of free time on one node, published to the metascheduler by the local
resource manager.  Slots on different nodes have arbitrary, non-matching
start and finish points — this is exactly what makes synchronous
co-allocation non-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.model.errors import InvalidIntervalError, ModelError
from repro.model.resource import CpuNode

#: Tolerance for floating-point comparisons on the time axis.  Two events
#: closer than this are considered simultaneous.
TIME_EPSILON = 1e-9


def last_start(end: float, required_time: float, deadline: Optional[float] = None) -> float:
    """The latest window start from which a task of ``required_time``
    finishes by both the slot's ``end`` and the ``deadline``:
    ``min(end, deadline) - required_time``.

    Scans compute it once per leg: it is what :func:`fits_from` reads and
    the time at which a waiting leg leaves the AEP extended window.
    """
    if deadline is not None and deadline < end:
        end = deadline
    return end - required_time


def fits_from(last: float, start: float) -> bool:
    """Whether a leg whose :func:`last_start` is ``last`` fits from window
    start ``start``: ``last >= start - TIME_EPSILON``.

    In reals this is the paper's pruning test (a slot leaves the extended
    window when ``wSlot.EndTime - windowStart < minLength``), with the
    deadline folded into the end.  It is the one float form of "a leg
    fits from t" in the package: every scan's insert and expiry, the
    columnar plan, :meth:`~repro.model.window.Window.validate` and every
    cut read it, so a leg a search accepted is one a cut accepts.
    """
    return last >= start - TIME_EPSILON


def is_span(start: float, end: float) -> bool:
    """Whether ``[start, end)`` is long enough to be a slot:
    ``end - start > TIME_EPSILON``.

    The one float form of "a span is a slot" in the package: a
    :class:`Slot` must pass it, and every code that makes spans — a
    cut's remainders (:meth:`Slot.split`), a trimmed tail
    (:meth:`~repro.model.slotpool.SlotPool.trim_before` and its column
    twin :func:`~repro.model.slotpool.floor_survivors`), a timeline's
    free gaps — keeps exactly the spans that pass it and drops the rest.
    """
    return end - start > TIME_EPSILON


@dataclass(frozen=True)
class Slot:
    """A contiguous free time span ``[start, end)`` on one CPU node.

    Slots are immutable value objects; cutting a reservation out of a slot
    produces *new* slots (see :meth:`split`).
    """

    node: CpuNode
    start: float
    end: float

    def __post_init__(self) -> None:
        if not is_span(self.start, self.end):
            raise InvalidIntervalError(self.start, self.end)

    @property
    def length(self) -> float:
        """Duration of the slot."""
        return self.end - self.start

    def split(self, start: float, required_time: float) -> list["Slot"]:
        """Remove the reservation ``[start, start + required_time)`` and
        return the remainders.

        The reservation must fit: a non-negative ``required_time``, a
        ``start`` no earlier than the slot's start, and :func:`fits_from`
        at ``start`` — the test the search that chose it read, so a leg
        it accepted never raises here.  The left remainder ``[self.start,
        min(start, self.end))`` and the right remainder ``[max(start +
        required_time, self.start), self.end)`` are returned when they
        are slots (:func:`is_span`); shorter fragments are dropped (the
        "cutting" step of the CSA scheme, reference [17] of the paper).
        Both are clamped into the slot: the fit tests' ε lets a
        reservation start up to ε before the slot or end up to ε past
        it, and a remainder reaching past the slot would add free time,
        so a cut never grows a slot.
        """
        end = start + required_time
        if (
            required_time < 0
            or start < self.start - TIME_EPSILON
            or not fits_from(last_start(self.end, required_time), start)
        ):
            raise ModelError(
                f"reservation [{start}, {end}) does not fit in slot "
                f"[{self.start}, {self.end}) on node {self.node.node_id}"
            )
        remainders: list[Slot] = []
        left_end = min(start, self.end)
        if is_span(self.start, left_end):
            remainders.append(Slot(self.node, self.start, left_end))
        right_start = max(end, self.start)
        if is_span(right_start, self.end):
            remainders.append(Slot(self.node, right_start, self.end))
        return remainders

    def sort_key(self) -> tuple[float, float, int]:
        """Deterministic ordering key: by start time, then end, then node.

        The AEP family requires the slot list ordered by *non-decreasing
        start time*; the extra components only make the order total and
        reproducible.
        """
        return (self.start, self.end, self.node.node_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Slot(node={self.node.node_id}, start={self.start:g}, end={self.end:g}, "
            f"perf={self.node.performance:g}, price={self.node.price_per_unit:g})"
        )
