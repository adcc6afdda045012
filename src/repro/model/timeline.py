"""Per-node busy/free timelines.

A non-dedicated node is described by the set of busy intervals already
claimed by local and higher-priority jobs.  The timeline turns those busy
intervals into the *free* gaps that the local resource manager publishes to
the metascheduler as slots.  It is also the allocation ledger: committing a
window marks the reserved spans busy, so subsequent scheduling cycles see a
consistent picture.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from repro.model.errors import InvalidIntervalError, ModelError
from repro.model.resource import CpuNode
from repro.model.slot import TIME_EPSILON, Slot
from repro.model.window import left_sum


@dataclass
class Timeline:
    """Busy-interval ledger for one node over a scheduling interval."""

    node: CpuNode
    interval_start: float
    interval_end: float
    _busy: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.interval_end - self.interval_start <= TIME_EPSILON:
            raise InvalidIntervalError(self.interval_start, self.interval_end)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_busy(self, start: float, end: float, *, allow_overlap: bool = False) -> None:
        """Mark ``[start, end)`` busy.

        Adjacent or overlapping busy intervals are merged.  With
        ``allow_overlap=False`` (the default) a genuine overlap with an
        existing busy interval raises :class:`ModelError` — committing a
        window twice is a scheduling bug we want to surface, not hide.
        """
        if end - start <= TIME_EPSILON:
            raise InvalidIntervalError(start, end)
        if start < self.interval_start - TIME_EPSILON or end > self.interval_end + TIME_EPSILON:
            raise ModelError(
                f"busy interval [{start}, {end}) outside the scheduling interval "
                f"[{self.interval_start}, {self.interval_end})"
            )
        if not allow_overlap:
            for busy_start, busy_end in self._busy:
                if busy_start < end - TIME_EPSILON and start < busy_end - TIME_EPSILON:
                    raise ModelError(
                        f"busy interval [{start}, {end}) overlaps existing "
                        f"[{busy_start}, {busy_end}) on node {self.node.node_id}"
                    )
        insort(self._busy, (start, end))
        self._merge()

    def _merge(self) -> None:
        merged: list[tuple[float, float]] = []
        for start, end in self._busy:
            if merged and start <= merged[-1][1] + TIME_EPSILON:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._busy = merged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def busy_intervals(self) -> list[tuple[float, float]]:
        """Sorted, merged busy intervals (copies; mutation-safe)."""
        return list(self._busy)

    def busy_time(self) -> float:
        """Total busy duration inside the scheduling interval."""
        return left_sum(end - start for start, end in self._busy)

    def utilization(self) -> float:
        """Fraction of the scheduling interval that is busy."""
        return self.busy_time() / (self.interval_end - self.interval_start)

    def free_intervals(self, min_length: float = TIME_EPSILON) -> list[tuple[float, float]]:
        """Free gaps of at least ``min_length`` inside the interval."""
        gaps: list[tuple[float, float]] = []
        cursor = self.interval_start
        for start, end in self._busy:
            if start - cursor >= min_length:
                gaps.append((cursor, start))
            cursor = max(cursor, end)
        if self.interval_end - cursor >= min_length:
            gaps.append((cursor, self.interval_end))
        return gaps

    def free_slots(self, min_length: float = TIME_EPSILON) -> list[Slot]:
        """The free gaps as :class:`Slot` objects on this node."""
        return [Slot(self.node, start, end) for start, end in self.free_intervals(min_length)]

    def is_free(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` is entirely free."""
        if end - start <= TIME_EPSILON:
            return True
        if start < self.interval_start - TIME_EPSILON or end > self.interval_end + TIME_EPSILON:
            return False
        for busy_start, busy_end in self._busy:
            if busy_start < end - TIME_EPSILON and start < busy_end - TIME_EPSILON:
                return False
        return True
