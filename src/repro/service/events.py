"""The broker's structured event stream: what happened to every job.

The aggregate counters of :class:`~repro.service.ServiceStats` say *how
many* jobs were scheduled or dropped; this module records *which* job,
*when* (virtual time) and *why*.  Every state transition in the broker —
submission, admission, queueing, cycle boundaries, scheduling, deferral,
dropping, retirement — emits one typed :class:`Event` through an
:class:`EventEmitter` into pluggable sinks:

* :class:`RingBufferSink` — the last ``capacity`` events in O(1) memory,
  for live introspection of an indefinitely running service;
* :class:`JsonlSink` — one JSON object per line, the archival trace
  format consumed by :class:`~repro.service.tracing.TraceValidator` and
  written by ``repro serve --trace PATH``;
* :class:`CollectingSink` — an unbounded in-memory list for tests;
* :class:`~repro.service.tracing.TraceValidator` itself, which checks
  conservation invariants as the events stream past.

Determinism contract: every field of every event is a pure function of
the submitted jobs, their virtual times and the configuration — except
fields whose names start with :data:`WALL_CLOCK_PREFIX`, which carry
measured wall-clock timings.  Stripping those (``deterministic_dict``)
must leave traces of identically seeded runs byte-identical, whatever
the process's hash seed.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.model.errors import ConfigurationError

#: Field-name prefix marking measured wall-clock values (phase timings),
#: the only event content allowed to differ between identically seeded
#: runs.  Everything else is deterministic.
WALL_CLOCK_PREFIX = "wall_"

#: Keys of the event envelope itself; extra fields must not shadow them.
RESERVED_KEYS = frozenset({"seq", "type", "time", "job_id"})


class EventType(enum.Enum):
    """Everything that can happen to a job (or a cycle) in the broker."""

    SUBMITTED = "submitted"  #: a job was offered to the service
    ADMITTED = "admitted"  #: admission control accepted it
    REJECTED = "rejected"  #: admission control turned it away (``reason``)
    QUEUED = "queued"  #: it entered the bounded queue (``deferrals, depth``)
    CYCLE_START = "cycle_start"  #: a scheduling cycle began (``cycle``)
    CYCLE_END = "cycle_end"  #: ... and ended (batch size, phase timings)
    SCHEDULED = "scheduled"  #: a window was committed (window summary)
    DEFERRED = "deferred"  #: unscheduled this cycle, re-queued
    DROPPED = "dropped"  #: gave up on the job (``cause``)
    RETIRED = "retired"  #: it finished; slots released (node-seconds)
    REVOKED = "revoked"  #: a local job preempted committed legs (``nodes``)
    REPAIRED = "repaired"  #: revoked legs replaced at the same start time
    REPLANNED = "replanned"  #: window cancelled, job re-queued with backoff
    ABANDONED = "abandoned"  #: recovery gave up (budget/deadline/retries)
    # --- tenancy / credit events (only emitted with ``ServiceConfig.
    # tenancy`` enabled; ``balance`` is the tenant's post-operation
    # balance, which the TraceValidator replays for conservation) ---
    CREDIT_DEBITED = "credit_debited"  #: escrow charged at commit (``amount``)
    CREDIT_REFUNDED = "credit_refunded"  #: escrow returned (``kind``)
    INSUFFICIENT_CREDIT = "insufficient_credit"  #: tenant could not pay
    # --- federation-level events (intake tier, never emitted by a broker;
    # shard-broker events in a federation trace instead carry a
    # ``shard_id`` payload field) ---
    ROUTED = "routed"  #: the intake tier placed a job on a shard (``shard``)
    COALLOCATED = "coallocated"  #: a window was composed across shards
    SHARD_LOST = "shard_lost"  #: a shard died; its in-flight jobs evacuated


@dataclass(frozen=True)
class Event:
    """One structured trace record.

    ``time`` is *virtual* time (the broker clock); ``seq`` is a per-run
    monotone sequence number that orders simultaneous events.  ``fields``
    carries the per-type payload (rejection reason, window summary,
    phase timings, ...), flattened next to the envelope in the JSON form.
    """

    seq: int
    type: EventType
    time: float
    job_id: Optional[str] = None
    fields: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """The flat JSON-friendly form (payload merged into the envelope)."""
        payload: dict[str, object] = {
            "seq": self.seq,
            "type": self.type.value,
            "time": self.time,
        }
        if self.job_id is not None:
            payload["job_id"] = self.job_id
        payload.update(self.fields)
        return payload

    def deterministic_dict(self) -> dict[str, object]:
        """:meth:`to_dict` minus wall-clock fields — the comparable part.

        Two identically seeded runs must agree on this view exactly,
        whatever their hash seeds.
        """
        return {
            key: value
            for key, value in self.to_dict().items()
            if not key.startswith(WALL_CLOCK_PREFIX)
        }

    def to_json(self) -> str:
        """One canonical JSONL line (sorted keys, no whitespace padding)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Event":
        """Inverse of :meth:`to_dict` (used by the trace loader).

        An event type this build does not know — a trace written by a
        newer broker — raises :class:`ConfigurationError` naming the
        offending type, so old validators degrade with a clear message
        instead of a raw lookup error.  Missing envelope keys are
        reported the same way.
        """
        data = dict(payload)
        for key in ("seq", "type", "time"):
            if key not in data:
                raise ConfigurationError(
                    f"trace event is missing the {key!r} envelope field: "
                    f"{payload!r}"
                )
        seq = int(data.pop("seq"))  # type: ignore[arg-type]
        raw_type = data.pop("type")
        try:
            event_type = EventType(raw_type)
        except ValueError:
            known = ", ".join(sorted(t.value for t in EventType))
            raise ConfigurationError(
                f"unknown event type {raw_type!r} in trace (this build knows: "
                f"{known}) — the trace was likely written by a newer broker"
            ) from None
        time = float(data.pop("time"))  # type: ignore[arg-type]
        job_id = data.pop("job_id", None)
        return cls(
            seq=seq,
            type=event_type,
            time=time,
            job_id=None if job_id is None else str(job_id),
            fields=data,
        )


class EventSink:
    """Consumer interface for the event stream.

    Subclasses override :meth:`emit`; :meth:`close` is called when the
    producing service is done with the sink (flush files, etc.).
    """

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; default is a no-op."""


class RingBufferSink(EventSink):
    """The most recent ``capacity`` events, O(1) memory forever."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        self._ring.append(event)

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def events(self) -> list[Event]:
        """The buffered events, oldest first."""
        return list(self._ring)

    def tail(self, count: int) -> list[Event]:
        """The most recent ``count`` buffered events, oldest first."""
        if count < 0:
            raise ValueError(f"tail count must be >= 0, got {count}")
        return list(self._ring)[max(0, len(self._ring) - count):]


class CollectingSink(EventSink):
    """Every event, unbounded — for tests and short scripted runs."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)


class JsonlSink(EventSink):
    """Append events to ``path`` as JSON Lines (one event per line)."""

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")
        self.count = 0

    def emit(self, event: Event) -> None:
        self._handle.write(event.to_json())
        self._handle.write("\n")
        self.count += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load_trace(path: str) -> list[Event]:
    """Read a JSONL trace written by :class:`JsonlSink` back into events.

    A malformed record raises :class:`ConfigurationError` carrying the
    file and line number on top of :meth:`Event.from_dict`'s diagnosis.
    """
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(Event.from_dict(json.loads(line)))
            except ConfigurationError as error:
                raise ConfigurationError(
                    f"{path}:{line_number}: {error}"
                ) from None
    return events


class EventEmitter:
    """The broker's end of the stream: stamps and fans out events.

    The emitter owns the sequence counter and reads virtual time through
    ``clock`` (the broker wires its own clock in), so producers only name
    the event type, the job and the payload.  With no sinks attached,
    :meth:`emit` is a cheap no-op — tracing costs nothing unless asked
    for.  One emitter is shared by the broker and its components
    (admission, queue, lifecycle) so the sequence numbers give one total
    order over the whole service.
    """

    def __init__(
        self,
        sinks: Sequence[EventSink] = (),
        clock: Optional[Callable[[], float]] = None,
    ):
        self._sinks: list[EventSink] = list(sinks)
        self._clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self._seq = 0

    @property
    def enabled(self) -> bool:
        """Whether any sink is listening."""
        return bool(self._sinks)

    @property
    def sinks(self) -> tuple[EventSink, ...]:
        return tuple(self._sinks)

    def add_sink(self, sink: EventSink) -> None:
        """Attach one more consumer (takes effect on the next emit)."""
        self._sinks.append(sink)

    def emit(
        self, event_type: EventType, job_id: Optional[str] = None, **fields: object
    ) -> Optional[Event]:
        """Stamp one event and hand it to every sink; ``None`` when idle."""
        if not self._sinks:
            return None
        bad = RESERVED_KEYS.intersection(fields)
        if bad:
            raise ValueError(f"event fields shadow the envelope: {sorted(bad)}")
        event = Event(
            seq=self._seq,
            type=event_type,
            time=self._clock(),
            job_id=job_id,
            fields=fields,
        )
        self._seq += 1
        for sink in self._sinks:
            sink.emit(event)
        return event

    def ingest(self, event: Event, **extra: object) -> Optional[Event]:
        """Re-stamp a foreign event onto this emitter's sequence.

        The federation tier merges several shard brokers' streams into one
        trace: each shard event keeps its own virtual ``time`` (the shard
        clocks advance independently between synchronisation points) but is
        re-sequenced through the shared counter, and ``extra`` payload
        fields — typically ``shard_id`` — are merged in, so the combined
        stream has unique, totally ordered sequence numbers.
        """
        if not self._sinks:
            return None
        bad = RESERVED_KEYS.intersection(extra)
        if bad:
            raise ValueError(f"event fields shadow the envelope: {sorted(bad)}")
        fields = dict(event.fields)
        fields.update(extra)
        stamped = Event(
            seq=self._seq,
            type=event.type,
            time=event.time,
            job_id=event.job_id,
            fields=fields,
        )
        self._seq += 1
        for sink in self._sinks:
            sink.emit(stamped)
        return stamped

    def close(self) -> None:
        """Close every attached sink."""
        for sink in self._sinks:
            sink.close()


def deterministic_trace(events: Iterable[Event]) -> list[dict[str, object]]:
    """The comparable view of a whole trace (wall-clock fields stripped)."""
    return [event.deterministic_dict() for event in events]
