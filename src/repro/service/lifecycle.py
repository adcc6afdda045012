"""The slot lifecycle: scheduled jobs run, finish, and free their slots.

The one-shot batch tools stop at commit; a long-running broker must also
see jobs *finish* so the reserved node-time flows back into the pool.
:class:`JobLifecycle` is that registry: windows enter on commit, a
virtual-clock sweep retires everything complete, and each retired
window's reservations return via :meth:`repro.model.SlotPool.release`,
which coalesces them with neighbouring free slots.  Retired entries are
discarded, so an indefinitely running service holds state only for jobs
actually in flight.

The registry also indexes its windows by node (node id -> ids of the
live jobs with a leg there), kept in step with the entries by the four
methods that change them — :meth:`JobLifecycle.start`, ``replace``,
``cancel`` and ``retire_due``.  The resilience layer reads it on every
clock step: :meth:`JobLifecycle.active_nodes` is the set of nodes a
local job can disturb, :meth:`JobLifecycle.entries_on` the windows one
preemption can compromise — so a step costs what changes, not a walk
over every live window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import KeysView, Optional

from repro.model.errors import SchedulingError
from repro.model.job import Job
from repro.model.slot import TIME_EPSILON
from repro.model.slotpool import SlotPool
from repro.model.window import Window
from repro.service.events import EventEmitter, EventType


@dataclass(frozen=True)
class ActiveJob:
    """A scheduled job currently occupying its window."""

    job: Job
    window: Window
    scheduled_at: float
    completes_at: float


class JobLifecycle:
    """Virtual-clock registry of running jobs."""

    def __init__(self, emitter: Optional[EventEmitter] = None) -> None:
        self._active: dict[str, ActiveJob] = {}
        #: node id -> ids of the live jobs with a leg on it; a node with
        #: none has no key.
        self._on_node: dict[int, set[str]] = {}
        self._emitter = emitter if emitter is not None else EventEmitter()

    @property
    def active_count(self) -> int:
        """Number of jobs currently occupying windows."""
        return len(self._active)

    def active_ids(self) -> set[str]:
        """Ids of every running job."""
        return set(self._active)

    def entries(self) -> list[ActiveJob]:
        """Every active entry, ordered by (window start, job id).

        The deterministic order a shard evacuation walks the live
        windows in.  The resilience layer reads the node index instead
        (:meth:`active_nodes`, :meth:`entries_on`).
        """
        return sorted(self._active.values(), key=_entry_order)

    def active_nodes(self) -> KeysView[int]:
        """Ids of the nodes hosting a leg of some running job.

        A live read-only view of the node index: copy it before the
        lifecycle changes if it must stay as it was.
        """
        return self._on_node.keys()

    def entries_on(self, node_id: int) -> list[ActiveJob]:
        """The running jobs with a leg on ``node_id``, as a fresh list in
        :meth:`entries`' (window start, job id) order.

        The windows one preemption of ``node_id`` can compromise, in the
        order the resilience layer recovers them.
        """
        job_ids = self._on_node.get(node_id)
        if not job_ids:
            return []
        active = self._active
        return sorted((active[job_id] for job_id in job_ids), key=_entry_order)

    def get(self, job_id: str) -> Optional[ActiveJob]:
        """The active entry for ``job_id``, or ``None``."""
        return self._active.get(job_id)

    def next_completion(self) -> Optional[float]:
        """Earliest completion time among running jobs, ``None`` when idle."""
        if not self._active:
            return None
        return min(entry.completes_at for entry in self._active.values())

    def start(
        self,
        job: Job,
        window: Window,
        now: float,
        completion_factor: float = 1.0,
    ) -> ActiveJob:
        """Register a committed window as a running job.

        ``completion_factor`` scales the reserved runtime into the actual
        one (early finishes release unused reservation tails back to the
        pool at retirement).
        """
        if job.job_id in self._active:
            raise SchedulingError(f"job {job.job_id!r} is already running")
        if not 0.0 < completion_factor <= 1.0:
            raise SchedulingError(
                f"completion_factor must be in (0, 1], got {completion_factor}"
            )
        entry = ActiveJob(
            job=job,
            window=window,
            scheduled_at=now,
            completes_at=window.start + window.runtime * completion_factor,
        )
        self._active[job.job_id] = entry
        self._index(job.job_id, window)
        return entry

    def replace(
        self, job_id: str, window: Window, completion_factor: float = 1.0
    ) -> ActiveJob:
        """Swap a running job's window for a repaired one.

        Used by the resilience layer after an in-place repair: the start
        time is preserved by construction, but the runtime (and hence
        the completion time) may change when a substitute leg sits on a
        slower node.  ``scheduled_at`` is kept from the original entry —
        the job never left the schedule.
        """
        old = self._active.get(job_id)
        if old is None:
            raise SchedulingError(f"job {job_id!r} is not running")
        entry = ActiveJob(
            job=old.job,
            window=window,
            scheduled_at=old.scheduled_at,
            completes_at=window.start + window.runtime * completion_factor,
        )
        self._active[job_id] = entry
        self._unindex(job_id, old.window)
        self._index(job_id, window)
        return entry

    def cancel(self, job_id: str) -> ActiveJob:
        """Remove a running job *without* releasing its slots.

        The resilience layer releases the surviving legs itself (the
        revoked ones are forfeited, not free), so this only drops the
        registry entry.  Raises :class:`SchedulingError` if absent.
        """
        entry = self._active.pop(job_id, None)
        if entry is None:
            raise SchedulingError(f"job {job_id!r} is not running")
        self._unindex(job_id, entry.window)
        return entry

    def retire_due(self, now: float, pool: SlotPool) -> list[ActiveJob]:
        """Retire every job complete by ``now``, releasing its slots.

        Each retired window's reservations go back into ``pool`` via
        :meth:`SlotPool.release`; retirement order is deterministic
        (completion time, then job id).  Returns the retired entries.

        The caller raised the pool's floor to ``now`` first (the
        broker's clock step), so ``release`` checks every span against
        the pool as reads see it and stores none that ended in the past
        — all but the longest leg of a job that ran its full
        reservation — unless it joins a live slot.  Retiring trims
        nothing.
        """
        due = [
            entry
            for entry in self._active.values()
            if entry.completes_at <= now + TIME_EPSILON
        ]
        due.sort(key=lambda entry: (entry.completes_at, entry.job.job_id))
        for entry in due:
            job_id = entry.job.job_id
            pool.release(entry.window)
            del self._active[job_id]
            self._unindex(job_id, entry.window)
            self._emitter.emit(
                EventType.RETIRED,
                job_id=job_id,
                completed_at=entry.completes_at,
                released_node_seconds=entry.window.processor_time,
            )
        return due

    def _index(self, job_id: str, window: Window) -> None:
        on_node = self._on_node
        for leg in window.slots:
            node_id = leg.slot.node.node_id
            job_ids = on_node.get(node_id)
            if job_ids is None:
                on_node[node_id] = {job_id}
            else:
                job_ids.add(job_id)

    def _unindex(self, job_id: str, window: Window) -> None:
        on_node = self._on_node
        for leg in window.slots:
            node_id = leg.slot.node.node_id
            job_ids = on_node[node_id]
            job_ids.discard(job_id)
            if not job_ids:
                del on_node[node_id]


def _entry_order(entry: ActiveJob) -> tuple[float, str]:
    return (entry.window.start, entry.job.job_id)
