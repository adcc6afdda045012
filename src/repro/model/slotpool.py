"""The ordered slot list ("slot pool") the selection algorithms scan.

The AEP family requires the list of all available slots *ordered by
non-decreasing start time* — that ordering is what makes a single linear
scan sufficient.  The pool keeps that order once, in its column store
(:class:`~repro.model.slotarrays.SlotColumnStore`: mutations record which
entries came and went, and the next read splices the ordered list and its
columns), indexes the same entries by node for per-node work, and
implements the "cutting" operation of the CSA scheme: once a window is
allocated, each affected slot is replaced in place by the usable
remainders of its reserved span, so the next search sees only genuinely
free time.

Past free time is dropped lazily: a virtual-clock step records a
*floor* (:meth:`SlotPool.advance_floor`, O(1)), and the pool trims to
it (:meth:`SlotPool.trim_before`) the first time it is mutated or hands
out slots or a snapshot.  The readers that run on every arrival —
``len()`` and admission (:meth:`SlotPool.arrays_before_floor`) — apply
the floor on read (:func:`floor_survivors`) and leave it pending, as
does the co-allocator, which searches the shards' snapshots merged
(:func:`merge_before_floor`), and so does a retirement
(:meth:`SlotPool.release` told the next clock step): it checks and
inserts its spans against what the pending trim leaves of each node.
In a steady stream the pool trims once per cycle.

The pool also keeps *negative certificates*: keys of searches a kernel
proved empty on it (:meth:`SlotPool.certify`, read by
:func:`repro.core.vectorized.vectorized_alternatives`).  Such a proof
survives every mutation that only takes free time away and dies with
every one that adds some; :class:`SlotPool` says which is which.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON, Slot, fits_from, is_span, last_start
from repro.model.slotarrays import (
    NODE_TABLE_COLUMNS,
    Entry,
    SlotArrays,
    SlotColumnStore,
)
from repro.model.window import Window, left_sum

_KEY = itemgetter(0)

#: Tolerance for coalescing two same-node slots across a gap: spans whose
#: endpoints are within one :data:`TIME_EPSILON` are considered touching.
#: This is the *same* single epsilon :func:`~repro.model.slot.is_span`
#: reads — one epsilon of slack on the time axis, never two.
COALESCE_GAP = TIME_EPSILON


def floor_survivors(
    start: np.ndarray, end: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """What ``trim_before(floor)`` makes of rows, as columns.

    ``start`` / ``end`` are rows the trim inspects — rows starting
    before ``floor + TIME_EPSILON``.  Returns the mask of rows it keeps
    and their starts afterwards: a row ending by ``floor +
    TIME_EPSILON`` is dropped, one starting at or after ``floor -
    TIME_EPSILON`` is kept as it is, and any other is cut to ``[floor,
    end)`` and kept only if that tail is a slot — the column form of
    :func:`~repro.model.slot.is_span`.  The comparisons are the trim's
    own, float for float; :func:`_trim_head`, the object rule
    :meth:`SlotPool.trim_before` applies per node, is the twin this rule
    is tested against.
    The tail test decides only at floors up to ``TIME_EPSILON`` (above,
    ``end - floor`` is exact), e.g. floor ``-TIME_EPSILON``, end ``1e-30``.
    """
    cut = start < floor - TIME_EPSILON
    kept = end > floor + TIME_EPSILON
    kept &= ~cut | (end - floor > TIME_EPSILON)
    return kept, np.where(cut, floor, start)


class PendingFloor(NamedTuple):
    """A pending floor as a snapshot's rows see it.

    ``trim_before(floor)`` inspects the rows before ``cutoff``, keeps
    those ``kept`` marks and leaves them starting at ``start`` (both
    over the rows before ``cutoff``); every later row is untouched.
    """

    floor: float
    cutoff: int
    kept: np.ndarray
    start: np.ndarray


class _MergedEntries(Sequence):
    """The entries of a merged snapshot (:func:`merge_before_floor`),
    built on read: a row's entry is its part's own, or, for a row its
    part's floor cut, a new ``Slot(node, floor, end)``."""

    __slots__ = ("_parts", "_part", "_row", "_start")

    def __init__(self, parts, part: np.ndarray, row: np.ndarray, start: np.ndarray):
        self._parts = parts
        self._part = part
        self._row = row
        self._start = start

    def __len__(self) -> int:
        return len(self._row)

    def __getitem__(self, index: int) -> Entry:
        slot = self._parts[self._part[index]].slot_at(int(self._row[index]))
        start = float(self._start[index])
        if start != slot.start:
            slot = Slot(slot.node, start, slot.end)
        return slot.sort_key(), slot


def merge_before_floor(
    parts: Sequence[tuple[SlotArrays, Optional[PendingFloor]]],
) -> SlotArrays:
    """One snapshot of pools on disjoint node sets, each read as
    :meth:`SlotPool.arrays_before_floor` returns it.

    Equals ``SlotPool.from_slots(slots).as_arrays()`` column for column,
    dtypes included, where ``slots`` are every part's slots after
    ``trim_before`` of its pending floor — without a pool, a trim or a
    ``Slot`` per row.  Each part contributes the rows its floor keeps
    (:func:`floor_survivors`), at their new starts; one stable
    ``lexsort`` puts the rows in ``(start, end, node id)`` order, which
    is total because no node is in two parts.  The node table lists the
    nodes that still own a row, by ascending id, with their parts'
    table columns.  ``slot_at(row)`` is the part's own slot, or a slot
    cut to the floor, built when read.
    """
    if not parts:
        return SlotArrays.from_slots([])
    starts, ends, table_rows, part_ids, rows = [], [], [], [], []
    offset = 0
    for index, (arrays, pending) in enumerate(parts):
        count = arrays.slot_count
        if pending is None:
            row = np.arange(count)
            start = arrays.start
        else:
            row = np.concatenate(
                (np.flatnonzero(pending.kept), np.arange(pending.cutoff, count))
            )
            start = np.concatenate(
                (pending.start[pending.kept], arrays.start[pending.cutoff :])
            )
        starts.append(start)
        ends.append(arrays.end[row])
        table_rows.append(arrays.node_row[row] + offset)
        part_ids.append(np.full(len(row), index))
        rows.append(row)
        offset += arrays.node_count
    table = {
        name: np.concatenate([getattr(arrays, name) for arrays, _ in parts])
        for name in NODE_TABLE_COLUMNS
    }
    start = np.concatenate(starts)
    end = np.concatenate(ends)
    table_row = np.concatenate(table_rows)
    node_ids = table["node_id"]
    order = np.lexsort((node_ids[table_row], end, start))
    # The nodes that own a row, by ascending id (ids are distinct).
    owned = np.zeros(len(node_ids), dtype=bool)
    owned[table_row] = True
    present = np.flatnonzero(owned)
    present = present[np.argsort(node_ids[present])]
    rank = np.empty(len(node_ids), dtype=np.int64)
    rank[present] = np.arange(len(present), dtype=np.int64)
    os_names = list(chain.from_iterable(arrays.os_names for arrays, _ in parts))
    start = start[order]
    return SlotArrays(
        start=start,
        end=end[order],
        node_row=rank[table_row[order]],
        os_names=[os_names[node] for node in present.tolist()],
        _entries=_MergedEntries(
            [arrays for arrays, _ in parts],
            np.concatenate(part_ids)[order],
            np.concatenate(rows)[order],
            start,
        ),
        **{name: column[present] for name, column in table.items()},
    )


def _find_entry(entries: list[Entry], entry: Entry) -> Optional[int]:
    """Index of ``entry`` in a sorted entry list, or ``None`` if absent.

    Bisects to the first equal sort key, then compares slots by equality
    (several distinct slots may share a key only through float collisions,
    so the scan is almost always a single comparison).
    """
    index = bisect_left(entries, entry)
    while index < len(entries) and entries[index][0] == entry[0]:
        if entries[index][1] == entry[1]:
            return index
        index += 1
    return None


def _trim_head(bucket: list[Entry], time: float) -> tuple[list[Entry], list[Entry], int]:
    """What ``trim_before(time)`` makes of one node's start-ordered bucket.

    Returns ``(head, survivors, kept)``: the trim inspects the bucket's
    first ``len(head)`` entries, ``head``, and leaves ``survivors`` in
    their place, ``kept`` of them the bucket's own entries, kept as they
    are; every later entry starts after the bound below and is
    untouched.  An inspected entry ending by ``time +
    TIME_EPSILON`` is dropped, one starting at or after ``time -
    TIME_EPSILON`` is kept, and any other is cut to ``[time, end)`` when
    that tail is a slot — the object twin of :func:`floor_survivors`.

    At most the head's last entry survives, so no re-sort is needed: a
    survivor ends after the bound, and the next entry starts by it, so
    the float ``start - end`` is negative — not the more than
    :data:`COALESCE_GAP` the pool's shape puts between slots of one node.
    """
    bound = time + TIME_EPSILON
    # Every slot starting at or before ``bound``: where one ulp of
    # ``time`` exceeds twice the tolerance, ``bound`` is ``time``
    # itself, and a slot starting there must sort among those cut to
    # start there.
    probe = ((bound, math.inf),)
    if not bucket[0] < probe:
        return [], [], 0
    if len(bucket) == 1 or not bucket[1] < probe:  # the usual head
        head = bucket[:1]
    else:
        head = bucket[: bisect_left(bucket, probe, 2)]
    truncate_before = time - TIME_EPSILON
    survivors: list[Entry] = []
    kept = 0
    for entry in head:
        (start, end, node_id), slot = entry
        if end <= bound:
            continue
        if start >= truncate_before:
            survivors.append(entry)  # starts at ``time``: kept as it is
            kept += 1
        elif is_span(time, end):
            survivors.append(((time, end, node_id), Slot(slot.node, time, end)))
    return head, survivors, kept


def _carved(remainders: list[Slot]) -> bool:
    """Whether a cut's ``remainders`` (:meth:`Slot.split`, which keeps
    them inside their host) lie more than :data:`COALESCE_GAP` apart —
    true unless the reservation was at most ``TIME_EPSILON`` long."""
    return len(remainders) < 2 or remainders[1].start - remainders[0].end > COALESCE_GAP


def _has_neighbours(bucket: list[Entry]) -> bool:
    """Whether two slots of one node's start-ordered bucket overlap or lie
    within :data:`COALESCE_GAP` — the only inputs coalescing could merge."""
    reach = float("-inf")  # furthest end so far: each slot clears the last
    for (start, end, _), _slot in bucket:
        if start - reach <= COALESCE_GAP:
            return True
        reach = end
    return False


@dataclass
class SlotPool:
    """A mutable, start-time-ordered collection of free slots.

    One shape: per node, slots lie more than :data:`COALESCE_GAP` apart
    (:meth:`assert_disjoint_per_node`).  A cut or a trim keeps every
    remainder that is a slot (:func:`~repro.model.slot.is_span`) and
    nothing shorter; how much of a used slot CSA keeps between its AMP
    runs is CSA's cutting policy, not the pool's.

    Every mutation is a *removal* or a *gain* of free time, and the
    certificate store (:meth:`certify`) follows that split.

    * Removals keep the certificates.  :meth:`remove`, the trims
      (:meth:`trim_before`, and the floors :meth:`advance_floor`
      records), and cutting (:meth:`commit_window`)
      only drop slots or leave a slot's sub-span on the same node: a
      trimmed slot keeps its end and starts later, and a cut remainder
      is part of its host.  A search proven empty stays empty on any
      such sub-pool (the proof is in :mod:`repro.core.vectorized`).
    * Gains empty the store.  :meth:`add`, :meth:`release` and the two
      remainders of a reservation of at most ε, which merge back into
      their host, count as adding free time, and a bulk load
      (:meth:`from_slots`) starts a pool with an empty store.  A cut
      never adds free time: :meth:`Slot.split` clamps its remainders
      into the host.
    * :meth:`copy` shares the store with the twin until either side
      mutates: a removal then gives the mutated pool its own copy of
      the store, and a gain an empty one.  Pools sharing one store
      therefore always hold the same slots, and a certificate recorded
      through one is true of all of them.
    """

    #: Per-node index: node_id -> the node's ``(sort key, slot)``
    #: entries, start-ordered.  Node-scoped operations — coalescing,
    #: removal, host lookup, overlap checks, the trim — walk short
    #: buckets instead of the whole pool; the keys are the pool's node
    #: set, and ``node_count`` is O(1) (empty buckets are deleted
    #: eagerly).
    _by_node: dict[int, list[Entry]] = field(default_factory=dict)
    #: The pool's one total order: every mutation records the entries
    #: it inserted or deleted, and the ordered list and its columns
    #: catch up on the next read, so neither :meth:`ordered` nor
    #: :meth:`as_arrays` pays a per-slot Python rebuild (see
    #: :class:`~repro.model.slotarrays.SlotColumnStore`).
    _store: SlotColumnStore = field(init=False, repr=False, compare=False)
    #: The floor recorded by :meth:`advance_floor` and not yet applied.
    _floor: Optional[float] = field(default=None, repr=False, compare=False)
    #: ``(time, generation)`` of the last :meth:`trim_before`: while the
    #: generation holds, a floor at or below ``time`` changes nothing.
    _trimmed: tuple[float, int] = field(
        default=(float("-inf"), -1), repr=False, compare=False
    )
    #: Negative certificates: search key -> ``True``, oldest first
    #: (:meth:`certify`), and whether a :meth:`copy` may share the dict.
    _certificates: dict = field(default_factory=dict, repr=False, compare=False)
    _certificates_shared: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._store = SlotColumnStore(self._by_node)

    @classmethod
    def from_slots(cls, slots: Iterable[Slot]) -> "SlotPool":
        """Build a pool from an iterable of slots, in bulk where possible.

        The result always equals :meth:`add` one slot at a time.
        Coalescing can only change anything when two slots of one node
        overlap or lie within :data:`COALESCE_GAP`, and the
        start-ordered per-node buckets show whether any do (a slot
        starting within the gap of the furthest end before it).  When
        none do — every generated environment: a timeline's free gaps
        are separated by busy chunks; every shard of a pool — the pool
        is filled in bulk: one sort, then the buckets in order and one
        record in the store, instead of a bucket walk and a bisect per
        slot.  Otherwise the slots are added one by one.
        """
        pool = cls()
        slots = list(slots)
        entries = sorted(((slot.sort_key(), slot) for slot in slots), key=_KEY)
        by_node = pool._by_node
        for entry in entries:
            by_node.setdefault(entry[1].node.node_id, []).append(entry)
        if any(map(_has_neighbours, by_node.values())):
            by_node.clear()
            for slot in slots:
                pool.add(slot)
            return pool
        pool._store.load_sorted(entries)
        return pool

    # ------------------------------------------------------------------
    # The floor
    # ------------------------------------------------------------------
    def advance_floor(self, time: float) -> None:
        """Record that free time before ``time`` is past, in O(1).

        The pool applies the floor through :meth:`trim_before` the first
        time it is mutated or hands out slots or a snapshot, so a run of
        clock steps with nothing between them costs one trim.  That is
        exact: with nothing between them, ``trim_before(t1)`` then
        ``trim_before(t2)`` leaves what ``trim_before(t2)`` alone leaves
        when ``t1 + TIME_EPSILON < t2 - TIME_EPSILON`` (a slot cut to
        ``[t1, end)`` is cut again to ``[t2, end)``, and every tail
        test at ``t2`` is monotone in the floor), and what
        ``trim_before(t1)`` leaves when ``t2 <= t1``.  A floor less
        than two epsilons above the pending one applies that one first.
        A retirement told the coming floor (:meth:`release`) leaves the
        pending one pending, by the same rule.
        """
        pending = self._floor
        if pending is None:
            trimmed, generation = self._trimmed
            if time <= trimmed and generation == self._store.generation:
                return
        elif time <= pending:
            return
        elif not pending + TIME_EPSILON < time - TIME_EPSILON:
            self.apply_floor()
        self._floor = time

    def apply_floor(self) -> int:
        """Trim to the pending floor now; returns what the trim changed
        (0 when no floor is pending)."""
        floor = self._floor
        if floor is None:
            return 0
        self._floor = None
        return self.trim_before(floor)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The slot count once the pending floor is applied.

        Counted without applying it: the rows ``trim_before`` would
        drop are subtracted (see :meth:`arrays_before_floor`).
        """
        size = self._store.size
        if self._floor is None:
            return size
        _, pending = self.arrays_before_floor()
        assert pending is not None
        return size - pending.cutoff + int(np.count_nonzero(pending.kept))

    def __iter__(self) -> Iterator[Slot]:
        """Iterate slots by non-decreasing start time: the pool as it
        is now, whatever the loop then does to it."""
        self.apply_floor()
        return (slot for _, slot in self._store.entries())

    def ordered(self) -> list[Slot]:
        """The slots as a new list, ordered by non-decreasing start time."""
        self.apply_floor()
        return [slot for _, slot in self._store.entries()]

    def __contains__(self, slot: Slot) -> bool:
        self.apply_floor()
        bucket = self._by_node.get(slot.node.node_id, ())
        return _find_entry(bucket, (slot.sort_key(), slot)) is not None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, slot: Slot) -> None:
        """Insert a slot, keeping the start-time order.

        The new slot is *coalesced* with touching slots of the same node
        already in the pool (identical node, hence identical price and
        performance; gap within :data:`COALESCE_GAP`), so repeated
        cut/release cycles do not fragment the pool into ever shorter
        spans.  One overlapping a slot of its node by more than the gap
        raises :class:`AllocationError`, pool unchanged.
        """
        self.apply_floor()
        self._add(slot)

    def _add(self, slot: Slot) -> None:
        """The body of :meth:`add`: coalesces against the buckets as
        they are, pending floor or not."""
        slot = self._coalesce(slot)
        if self._certificates or self._certificates_shared:
            self._gained()
        entry = (slot.sort_key(), slot)
        insort(self._by_node.setdefault(slot.node.node_id, []), entry)
        self._store.insert(entry)

    def _coalesce(self, slot: Slot) -> Slot:
        """Absorb same-node neighbours touching ``slot`` and return the union.

        The pool's shape leaves at most one slot ending at ``slot.start``
        and one starting at ``slot.end``; both are removed and the merged
        span returned.  Any other slot not clearing ``slot`` by more than
        the gap overlaps it: that raises, before anything is removed.
        """
        left: Optional[Slot] = None
        right: Optional[Slot] = None
        for _, other in self._by_node.get(slot.node.node_id, ()):
            if abs(other.end - slot.start) <= COALESCE_GAP:
                left = other
            elif abs(slot.end - other.start) <= COALESCE_GAP:
                right = other
            elif (
                other.end - slot.start > COALESCE_GAP
                and slot.end - other.start > COALESCE_GAP
            ):
                raise AllocationError(f"slot {slot!r} overlaps free slot {other!r}")
        if left is None and right is None:
            return slot
        start = slot.start if left is None else left.start
        end = slot.end if right is None else right.end
        for neighbour in (left, right):
            if neighbour is not None:
                self._remove(neighbour)
        return Slot(slot.node, start, end)

    def remove(self, slot: Slot) -> None:
        """Remove one slot; raises :class:`AllocationError` if absent."""
        self.apply_floor()
        self._remove(slot)

    def _remove(self, slot: Slot) -> None:
        """The body of :meth:`remove`."""
        node_id = slot.node.node_id
        bucket = self._by_node.get(node_id, ())
        index = _find_entry(bucket, (slot.sort_key(), slot))
        if index is None:
            raise AllocationError(f"slot not in pool: {slot!r}")
        entry = bucket.pop(index)
        if not bucket:
            del self._by_node[node_id]
        self._store.delete(entry)
        if self._certificates_shared:
            self._removed()

    def _removed(self) -> None:
        """Free time was only taken away: the certificates stay true,
        but a store shared with a copy is copied first."""
        if self._certificates_shared:
            self._certificates = dict(self._certificates)
            self._certificates_shared = False

    def _gained(self) -> None:
        """Free time was added: start an empty certificate store."""
        self._certificates = {}
        self._certificates_shared = False

    def commit_window(self, window: Window) -> None:
        """The pool's one cut, by *span containment*.

        Carves the span ``[window.start, window.start + required_time)``
        out of each leg's host and re-inserts the remainders that are
        slots (:meth:`Slot.split`): the "cutting" of reference [17].  A
        leg's host is the first slot on its node starting at or before
        the window start that the leg :func:`~repro.model.slot.fits_from`
        (the search's own test): the leg's own slot for a window just
        searched on this pool, or a remainder of it when an earlier
        commit of the same broker cycle cut it (phase two keeps the
        spans disjoint).  Raises :class:`AllocationError` when a leg has
        no host — e.g. a trim or an earlier commit took the span; the
        pool is left unchanged in that case.

        A cut is a splice of the host's bucket: the host's entry is
        replaced in place by its remainders.  A remainder lies inside
        its host and shares one of its outer ends, and the pool's shape
        keeps the host's neighbours more than :data:`COALESCE_GAP` away,
        so it can touch nothing but its sibling: the cut only removes
        free time, and the certificates stay.  Only a reservation of at
        most ``TIME_EPSILON`` leaves remainders that touch; they merge
        back into the host, inserted as :meth:`add` inserts them, and
        count as a gain.  No remainder overhangs its host, even where
        the fit test's ε reaches past one of its ends: :meth:`Slot.split`
        clamps it.
        """
        self.apply_floor()
        # Every leg's host is located before the first cut, so a window
        # with a homeless leg fails whole.  The legs sit on distinct
        # nodes: cutting one cannot invalidate another's host.
        cuts: list[tuple[Slot, float]] = []
        start = window.start
        for ws in window.slots:
            for _, slot in self._by_node.get(ws.slot.node.node_id, ()):
                if slot.start - TIME_EPSILON <= start and fits_from(
                    last_start(slot.end, ws.required_time), start
                ):
                    cuts.append((slot, ws.required_time))
                    break
            else:
                raise AllocationError(
                    f"no free slot on node {ws.slot.node.node_id} contains the "
                    f"reserved span [{start:g}, {start + ws.required_time:g})"
                )
        for host, required_time in cuts:
            remainders = host.split(start, required_time)
            if _carved(remainders):
                self._splice(host, remainders)
            else:
                self._remove(host)
                for remainder in remainders:
                    self._add(remainder)

    def _splice(self, host: Slot, remainders: list[Slot]) -> None:
        """Replace ``host``'s entry in its bucket by ``remainders``
        (start-ordered, inside the host, and off its neighbours): one
        store deletion and one insertion each, a removal."""
        node_id = host.node.node_id
        bucket = self._by_node.get(node_id, ())
        index = _find_entry(bucket, (host.sort_key(), host))
        if index is None:
            raise AllocationError(f"slot not in pool: {host!r}")
        entry = bucket[index]
        entries = [(remainder.sort_key(), remainder) for remainder in remainders]
        bucket[index : index + 1] = entries
        if not bucket:
            del self._by_node[node_id]
        store = self._store
        store.delete(entry)
        for remainder in entries:
            store.insert(remainder)
        self._removed()

    def release(self, window: Window, floor: Optional[float] = None) -> None:
        """Return a committed window's reservations to the pool.

        The inverse of :meth:`commit_window`: each leg's reserved span
        ``[window.start, window.start + required_time)`` is re-inserted and
        coalesced with adjacent same-node slots, so a cut followed by a
        release leaves the pool as it started (up to the remainders of at
        most :data:`TIME_EPSILON` the cut dropped: they are not slots).
        The slot lifecycle of the broker service relies on this to retire
        finished jobs without leaking or fragmenting capacity.

        ``floor`` is the time the caller trims to next
        (``trim_before(floor)``, directly or as the floor it records
        with :meth:`advance_floor`).  A span ending more than two
        :data:`TIME_EPSILON` before it is checked but not inserted,
        because that trim would delete all of it: the span and a
        coalesced left neighbour end before ``floor``, and the one slot
        it could merge with on its right starts within one epsilon of
        the span's end — before ``floor - TIME_EPSILON`` — so the trim
        truncates that slot to ``[floor, end)``, or drops it under the
        same tail rule, merged or not.  The pool after ``release(window,
        floor)`` and ``trim_before(floor)`` equals the pool after
        ``release(window)`` and ``trim_before(floor)``; spans nearer
        the boundary, and every span without a ``floor``, are inserted.

        A pending floor (:meth:`advance_floor`) stays pending when
        ``floor`` lies more than two epsilons above it — the floor the
        caller records next then replaces it, by ``advance_floor``'s own
        rule — so a retirement between cycles trims nothing.  The legs
        are checked against each bucket as the pending trim would leave
        it (:func:`_trim_head`, row by row, nothing written), and only a
        bucket a span is inserted into is trimmed to the pending floor
        first, so the span coalesces with what the pool would hold:
        trims are per node, and a node trimmed to the pending floor and
        then to ``floor`` ends as one trimmed to ``floor`` alone.  Any
        other ``floor``, or none, applies the pending floor first.

        Raises :class:`AllocationError` when any released span overlaps
        free time already in the pool (the signature of a double release);
        the pool is left unchanged in that case.
        """
        pending = self._floor
        if pending is not None and (
            floor is None or not pending + TIME_EPSILON < floor - TIME_EPSILON
        ):
            self.apply_floor()
            pending = None
        start = window.start
        # ``trim_before(floor)`` truncates what starts before this bound.
        bound = float("-inf") if floor is None else floor - TIME_EPSILON
        by_node = self._by_node
        inserts: list[Slot] = []
        for ws in window.slots:
            node = ws.slot.node
            span_end = start + ws.required_time
            bucket = by_node.get(node.node_id, ())
            rows: Iterable[Entry] = bucket
            if pending is not None and bucket:
                head, survivors, _ = _trim_head(bucket, pending)
                rows = chain(survivors, islice(bucket, len(head), None))
            # ``add``'s overlap test, so a span that passes is inserted.
            for (slot_start, slot_end, _), _slot in rows:
                if not span_end - slot_start > COALESCE_GAP:
                    break  # start-ordered: nothing later overlaps either
                if slot_end - start > COALESCE_GAP:
                    raise AllocationError(
                        f"released span [{start:g}, {span_end:g}) on node "
                        f"{node.node_id} overlaps free slot "
                        f"[{slot_start:g}, {slot_end:g}) — double release?"
                    )
            # Written with the sums the coalescing and the trim compare
            # floats by, so the two-epsilon rule holds to the last bit.
            if not span_end + TIME_EPSILON < bound:
                inserts.append(Slot(node, start, span_end))
        if pending is not None:
            for slot in inserts:
                self._trim_node(slot.node.node_id, pending)
        for slot in inserts:
            self._add(slot)

    def trim_before(self, time: float) -> int:
        """Drop free time earlier than ``time`` (virtual-clock advance).

        Slots ending at or before ``time`` are removed; slots straddling it
        are truncated to ``[time, end)`` (dropped entirely when that tail
        is not a slot, :func:`~repro.model.slot.is_span`).  Returns the
        number of slots removed or truncated.  This is the one code that
        trims the pool: the broker service only records each clock
        step's floor (:meth:`advance_floor`), and the pool calls this
        with it when it is next mutated or read — once per cycle in a
        steady stream, not once per arrival or retirement — so searches
        only ever see future time.  A pending floor is applied first.

        Only each node's slots starting at or before ``time +
        TIME_EPSILON`` are inspected — a bisect of its bucket finds
        them (:func:`_trim_head`) — and every later slot is kept
        untouched.  A node's inspected head is rewritten in place, by
        what survives of it.
        """
        self.apply_floor()
        changed = self._trim(time)
        self._trimmed = (time, self._store.generation)
        return changed

    def _trim(self, time: float) -> int:
        """The body of :meth:`trim_before`, on a pool with no floor pending."""
        probe = ((time + TIME_EPSILON, math.inf),)  # ``_trim_head``'s
        changed = 0
        prefix: list[Entry] = []
        rebuilt: list[Entry] = []
        emptied: list[int] = []
        for node_id, bucket in self._by_node.items():
            if not bucket[0] < probe:
                continue
            head, survivors, kept = _trim_head(bucket, time)
            prefix += head
            rebuilt += survivors
            if kept < len(head):
                changed += len(head) - kept
                bucket[: len(head)] = survivors
                if not bucket:
                    emptied.append(node_id)
        if not changed:
            return 0
        self._removed()
        for node_id in emptied:
            del self._by_node[node_id]
        self._store.replace_prefix(probe, prefix, rebuilt)
        return changed

    def _trim_node(self, node_id: int, time: float) -> None:
        """:meth:`_trim` on one node's bucket, recorded entry by entry.
        The one survivor :func:`_trim_head` allows is the head's last
        entry, kept or cut: every other head entry is deleted."""
        bucket = self._by_node.get(node_id)
        if not bucket:
            return
        head, survivors, kept = _trim_head(bucket, time)
        if kept == len(head):
            return
        bucket[: len(head)] = survivors
        if not bucket:
            del self._by_node[node_id]
        store = self._store
        for entry in head[: len(head) - kept]:
            store.delete(entry)
        for entry in survivors[kept:]:
            store.insert(entry)
        self._removed()

    def copy(self) -> "SlotPool":
        """A shallow copy (slots are immutable, so this is fully safe)."""
        # The served snapshot, shared with the twin until either side
        # mutates (snapshots are never written in place; each store
        # drops its own on its first edit): scan plans built on one
        # serve the other.
        self.as_arrays()
        buckets = {node_id: list(bucket) for node_id, bucket in self._by_node.items()}
        twin = SlotPool(buckets)
        twin._store = self._store.copy(twin._by_node)
        twin._trimmed = self._trimmed
        twin._certificates = self._certificates
        twin._certificates_shared = self._certificates_shared = True
        return twin

    # ------------------------------------------------------------------
    # Negative certificates
    # ------------------------------------------------------------------
    def certified(self, key) -> bool:
        """Whether a search keyed ``key`` was proven empty on this pool
        since it last gained free time.  Applies a pending floor, as
        the snapshot read the search would otherwise make does."""
        self.apply_floor()
        return key in self._certificates

    def certify(self, key, limit: int) -> None:
        """Record that the search keyed ``key`` finds nothing on this
        pool as it is now; the oldest of more than ``limit`` records is
        forgotten.  The caller owns the proof that removals keep the
        search empty."""
        store = self._certificates
        if len(store) >= limit:
            del store[next(iter(store))]
        store[key] = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Mutation counter: increments on every add/remove/trim.

        Two reads with equal generations saw identical contents, so
        callers key snapshot and scan-plan caches on it.  Reading it
        applies a pending floor.
        """
        self.apply_floor()
        return self._store.generation

    def as_arrays(self) -> SlotArrays:
        """The pool as a columnar snapshot (cached per generation).

        Served from the incrementally maintained column store: the
        *same* snapshot object is returned until the pool mutates — so
        repeated scans of an unchanged pool (the broker's phase-one
        batch, admission between cycles, benchmark repeats) reuse
        both the columns and any scan plans cached on them — and a
        mutated pool's store applies every edit since the last read in
        one column rewrite, never a per-slot Python rebuild or a numpy
        sort.  The snapshot holds the store's entry list of its
        generation; a search reads its winners' slots one row at a time
        (``slot_at``) and builds no ``slot_objects()`` list.
        """
        self.apply_floor()
        return self._snapshot()

    def arrays_before_floor(self) -> tuple[SlotArrays, Optional[PendingFloor]]:
        """The snapshot of the slots *before* the pending floor, and
        what that floor makes of its rows (``None`` when none is
        pending; :func:`floor_survivors`).

        Leaves the floor pending, for readers that apply it on read:
        ``len()``, admission and co-allocation (:func:`merge_before_floor`)
        do.  The rows are evaluated once per floor and snapshot, and
        the evaluation is kept on the snapshot, so it dies with it.
        """
        arrays = self._snapshot()
        floor = self._floor
        if floor is None:
            return arrays, None
        pending = getattr(arrays, "_pending_floor", None)
        if pending is None or pending.floor != floor:
            cutoff = int(np.searchsorted(arrays.start, floor + TIME_EPSILON))
            kept, start = floor_survivors(
                arrays.start[:cutoff], arrays.end[:cutoff], floor
            )
            pending = PendingFloor(floor, cutoff, kept, start)
            arrays._pending_floor = pending
        return arrays, pending

    def _snapshot(self) -> SlotArrays:
        """The snapshot of the current generation: the store's
        ``served`` one, which every edit drops."""
        store = self._store
        arrays = store.served
        if arrays is None:
            arrays = store.served = store.snapshot()
        return arrays

    def total_free_time(self) -> float:
        """Sum of all slot lengths in the pool."""
        return left_sum(slot.length for slot in self)

    def by_node(self) -> dict[int, list[Slot]]:
        """Slots grouped by node id (each group start-ordered).

        Served from the per-node index; the returned lists are fresh
        copies, so callers may mutate them freely.
        """
        self.apply_floor()
        return {
            node_id: [slot for _, slot in bucket]
            for node_id, bucket in self._by_node.items()
        }

    def node_count(self) -> int:
        """Number of distinct nodes contributing at least one slot (O(1))."""
        self.apply_floor()
        return len(self._by_node)

    def assert_disjoint_per_node(self) -> None:
        """Invariant check of the pool's shape: slots of one node lie
        more than :data:`COALESCE_GAP` apart (:func:`_has_neighbours`).

        The broker runs it every cycle under ``check_invariants``; a
        pool mutated only through its methods always passes.
        """
        self.apply_floor()
        for node_id, bucket in self._by_node.items():
            if _has_neighbours(bucket):
                raise AllocationError(f"slots on node {node_id} overlap or touch")
