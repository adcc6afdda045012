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

Free time before the *floor* does not exist, and that is a property of
reads.  The pool stores its slots as they were published, released or
cut, plus one monotone floor (:meth:`SlotPool.advance_floor`, O(1)), and
every read — the snapshot, iteration, ``len()``, the per-node view, the
mutators' host and neighbour lookups — sees the stored slots clamped to
the floor by one rule, :func:`floor_survivors`.  A trim
(:meth:`SlotPool.trim_before`) only deletes the slots the floor kills,
which no read sees anyway; the broker runs one per cycle.  The
co-allocator searches the shards' snapshots merged
(:func:`merge_snapshots`).

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
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON, Slot, fits_from, last_start
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


def floor_survivors(start, end, floor: float):
    """The pool's one floor rule: ``(kept, cut)`` for slots ``[start, end)``.

    A slot ending by ``floor + TIME_EPSILON`` is killed; one starting
    before ``floor - TIME_EPSILON`` is cut to ``[floor, end)`` and kept
    only if that tail is a slot (:func:`~repro.model.slot.is_span`'s
    test); any other is kept as it is.  ``start`` and ``end`` are one
    slot's floats (two bools come back) or columns (two masks).

    Every slot the rule changes starts at or before ``floor``, so a
    start-ordered reader applies it to that prefix only: a slot starting
    after the floor ends more than ``TIME_EPSILON`` after it, also where
    ``floor + TIME_EPSILON`` rounds.  The tail test decides only at
    floors up to ``TIME_EPSILON`` (above, ``end - floor`` is exact),
    e.g. floor ``-TIME_EPSILON``, end ``1e-30``.
    """
    cut = start < floor - TIME_EPSILON
    kept = (end > floor + TIME_EPSILON) & (
        (start >= floor - TIME_EPSILON) | (end - floor > TIME_EPSILON)
    )
    return kept, cut


def _clamped_key(key: tuple[float, float, int], floor: float):
    """An entry's sort key as the floor leaves it — itself, or starting at
    the floor — or ``None`` when the floor kills the slot."""
    start, end, node_id = key
    if start > floor:
        return key
    kept, cut = floor_survivors(start, end, floor)
    if not kept:
        return None
    return (floor, end, node_id) if cut else key


def _live(bucket: list[Entry], floor: float) -> Iterable[Entry]:
    """One node's start-ordered bucket as the floor leaves it: the
    entries it keeps, the first with its key clamped (its slot is still
    the stored one; :func:`_read` gives the slot it reads as).

    The killed entries are the bucket's head (each one before a killed
    entry ends earlier), and at most the first survivor is cut: every
    later one starts after its end, past the floor, and is passed on as
    stored.
    """
    for index, (key, slot) in enumerate(bucket):
        if key[0] > floor:
            return islice(bucket, index, None)
        key = _clamped_key(key, floor)
        if key is not None:
            return chain(((key, slot),), islice(bucket, index + 1, None))
    return ()


def _read(key: tuple, slot: Slot, cuts: dict) -> Slot:
    """The slot a stored ``slot`` reads as under its clamped ``key``:
    itself, or the one the floor cut from it (:func:`_cut`)."""
    return slot if key[0] == slot.start else _cut(slot, key[0], cuts)


def _cut(slot: Slot, floor: float, cuts: dict) -> Slot:
    """``slot`` cut to start at ``floor``, built on its first read:
    ``cuts`` holds the floor's cut slots by stored slot, so every read
    of one (a snapshot row, a host, a per-node view) is the same object."""
    found = cuts.get(id(slot))
    if found is None or found[0] is not slot:
        found = cuts[id(slot)] = (slot, Slot(slot.node, floor, slot.end))
    return found[1]


def _owning_table(arrays: Sequence, node_row: np.ndarray) -> tuple[np.ndarray, dict]:
    """The node table of the nodes ``node_row`` points at, by ascending
    id, and ``node_row`` re-pointed at it.  ``arrays`` lists the node
    tables the rows index, concatenated in that order."""
    table = {
        name: np.concatenate([getattr(part, name) for part in arrays])
        for name in NODE_TABLE_COLUMNS
    }
    node_ids = table["node_id"]
    owned = np.zeros(len(node_ids), dtype=bool)
    owned[node_row] = True
    present = np.flatnonzero(owned)
    present = present[np.argsort(node_ids[present], kind="stable")]
    rank = np.empty(len(node_ids), dtype=np.int64)
    rank[present] = np.arange(len(present), dtype=np.int64)
    os_names = list(chain.from_iterable(part.os_names for part in arrays))
    columns = {name: column[present] for name, column in table.items()}
    columns["os_names"] = [os_names[node] for node in present.tolist()]
    return rank[node_row], columns


class _ClampedEntries(Sequence):
    """The entries of a pool's snapshot, built on read (see
    :func:`_clamp`): row ``i`` of the re-sorted head is the store's entry
    ``rows[i]``, or, when the floor cut it, one starting at the floor
    (:func:`_cut`); every later row is the store's own entry, ``shift``
    on."""

    __slots__ = ("_entries", "_rows", "_start", "_shift", "_cuts")

    def __init__(self, entries, rows: np.ndarray, start: np.ndarray, shift: int, cuts: dict):
        self._entries = entries
        self._rows = rows
        self._start = start
        self._shift = shift
        self._cuts = cuts

    def __len__(self) -> int:
        return len(self._entries) - self._shift

    def __getitem__(self, row: int) -> Entry:
        if row >= len(self._rows):
            return self._entries[row + self._shift]
        entry = self._entries[int(self._rows[row])]
        start = float(self._start[row])
        if start == entry[0][0]:
            return entry
        (_, end, node_id), slot = entry
        return (start, end, node_id), _cut(slot, start, self._cuts)

    def __iter__(self) -> Iterator[Entry]:
        head = len(self._rows)
        yield from map(self.__getitem__, range(head))
        yield from islice(self._entries, head + self._shift, None)


def _floor_prefix(arrays: SlotArrays, floor: float) -> tuple[int, np.ndarray, np.ndarray]:
    """``(prefix, kept, cut)`` for start-ordered rows: the rule's masks
    over the rows starting at or before the floor, the only ones it can
    change (:func:`floor_survivors`); ``cut`` marks only kept rows."""
    start = arrays.start
    prefix = int(np.searchsorted(start, floor, side="right"))
    kept, cut = floor_survivors(start[:prefix], arrays.end[:prefix], floor)
    return prefix, kept, cut & kept


def _clamp(arrays: SlotArrays, floor: float, cuts: dict) -> tuple[SlotArrays, bool]:
    """A store snapshot as the floor leaves it, and whether the floor
    cut a slot.

    The rows the floor keeps of the prefix it can change
    (:func:`_floor_prefix`) are re-sorted by ``(start, end, node id)``
    with one ``lexsort`` over that prefix — a cut row starts at the
    floor, after every kept row starting before it — and every later
    row is left as it is.  The node table loses the nodes left with no
    row.  ``arrays`` itself comes back when the floor changes no row.
    """
    prefix, kept, cut = _floor_prefix(arrays, floor)
    any_cut = bool(cut.any())
    if not any_cut and kept.all():
        return arrays, False
    start, end, node_row = arrays.start, arrays.end, arrays.node_row
    rows = np.flatnonzero(kept)
    head_start = start[rows]
    head_start[cut[rows]] = floor
    # The table is in ascending id order, so its rows order as the ids do.
    order = np.lexsort((node_row[rows], end[rows], head_start))
    rows = rows[order]
    head_start = head_start[order]
    node_row = np.concatenate((node_row[rows], node_row[prefix:]))
    table = {name: getattr(arrays, name) for name in NODE_TABLE_COLUMNS}
    table["os_names"] = arrays.os_names
    if len(rows) < prefix:
        owned = np.zeros(arrays.node_count, dtype=bool)
        owned[node_row] = True
        if not owned.all():
            node_row, table = _owning_table([arrays], node_row)
    clamped = SlotArrays(
        start=np.concatenate((head_start, start[prefix:])),
        end=np.concatenate((end[rows], end[prefix:])),
        node_row=node_row,
        _entries=_ClampedEntries(
            arrays._entries, rows, head_start, prefix - len(rows), cuts
        ),
        **table,
    )
    return clamped, any_cut


class _MergedEntries(Sequence):
    """The entries of a merged snapshot (:func:`merge_snapshots`), read
    from their parts on demand."""

    __slots__ = ("_parts", "_part", "_row")

    def __init__(self, parts, part: np.ndarray, row: np.ndarray):
        self._parts = parts
        self._part = part
        self._row = row

    def __len__(self) -> int:
        return len(self._row)

    def __getitem__(self, index: int) -> Entry:
        slot = self._parts[self._part[index]].slot_at(int(self._row[index]))
        return slot.sort_key(), slot


def merge_snapshots(parts: Sequence[SlotArrays]) -> SlotArrays:
    """One snapshot of pools on disjoint node sets, each read as its
    :meth:`SlotPool.as_arrays`.

    Equals ``SlotPool.from_slots(slots).as_arrays()`` column for column,
    dtypes included, where ``slots`` are every part's slots — without a
    pool or a ``Slot`` per row.  One stable ``lexsort`` puts the rows in
    ``(start, end, node id)`` order, which is total because no node is
    in two parts.  The node table lists the nodes that own a row, by
    ascending id, with their parts' table columns.  ``slot_at(row)`` is
    the part's own.
    """
    if not parts:
        return SlotArrays.from_slots([])
    table_rows, part_ids, rows = [], [], []
    offset = 0
    for index, arrays in enumerate(parts):
        count = arrays.slot_count
        table_rows.append(arrays.node_row + offset)
        part_ids.append(np.full(count, index))
        rows.append(np.arange(count))
        offset += arrays.node_count
    start = np.concatenate([arrays.start for arrays in parts])
    end = np.concatenate([arrays.end for arrays in parts])
    table_row = np.concatenate(table_rows)
    node_ids = np.concatenate([arrays.node_id for arrays in parts])
    order = np.lexsort((node_ids[table_row], end, start))
    node_row, table = _owning_table(parts, table_row[order])
    return SlotArrays(
        start=start[order],
        end=end[order],
        node_row=node_row,
        _entries=_MergedEntries(
            parts, np.concatenate(part_ids)[order], np.concatenate(rows)[order]
        ),
        **table,
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


def _carved(remainders: list[Slot]) -> bool:
    """Whether a cut's ``remainders`` (:meth:`Slot.split`, which keeps
    them inside their host) lie more than :data:`COALESCE_GAP` apart —
    true unless the reservation was at most ``TIME_EPSILON`` long."""
    return len(remainders) < 2 or remainders[1].start - remainders[0].end > COALESCE_GAP


def _has_neighbours(bucket: Iterable[tuple]) -> bool:
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
    (:meth:`assert_disjoint_per_node`).  A cut keeps every remainder
    that is a slot (:func:`~repro.model.slot.is_span`) and nothing
    shorter; how much of a used slot CSA keeps between its AMP runs is
    CSA's cutting policy, not the pool's.

    The stored slots are read through the floor (:func:`floor_survivors`):
    every method below, mutators included, sees them clamped to it.  Per
    node the stored slots are disjoint too, so a node id and an end name
    one of them, and the slots the floor kills are a node's first ones.

    Every mutation is a *removal* or a *gain* of free time, and the
    certificate store (:meth:`certify`) follows that split.

    * Removals keep the certificates.  :meth:`remove`, a floor rise
      (:meth:`advance_floor`, :meth:`trim_before`) and cutting
      (:meth:`commit_window`) only drop slots or leave a slot's sub-span
      on the same node: a clamped slot keeps its end and starts later,
      and a cut remainder is part of its host.  A search proven empty
      stays empty on any such sub-pool (the proof is in
      :mod:`repro.core.vectorized`).
    * Gains empty the store.  :meth:`add`, :meth:`release` and the two
      remainders of a reservation of at most ε, which merge back into
      their host, count as adding free time, and a bulk load
      (:meth:`from_slots`) starts a pool with an empty store.  A cut
      never adds free time: :meth:`Slot.split` clamps its remainders
      into the host.
    * :meth:`copy` shares the store with the twin until either side
      mutates or reads a higher floor: a removal then gives that pool
      its own copy of the store, and a gain an empty one.  Pools sharing
      one store therefore always show the same slots, and a certificate
      recorded through one is true of all of them.
    """

    #: Per-node index: node_id -> the node's stored ``(sort key, slot)``
    #: entries, start-ordered.  Node-scoped operations — coalescing,
    #: removal, host lookup, overlap checks — walk short buckets instead
    #: of the whole pool; empty buckets are deleted eagerly.
    _by_node: dict[int, list[Entry]] = field(default_factory=dict)
    #: The pool's one total order of stored entries: every mutation
    #: records the entries it inserted or deleted, and the ordered list
    #: and its columns catch up on the next read (see
    #: :class:`~repro.model.slotarrays.SlotColumnStore`).
    _store: SlotColumnStore = field(init=False, repr=False, compare=False)
    #: Free time before it does not exist; only ever raised.
    _floor: float = field(default=-math.inf, repr=False, compare=False)
    #: The floor the store's served snapshot is clamped at, and whether
    #: that clamp cut a slot.
    _served_at: tuple[float, bool] = field(
        default=(-math.inf, False), repr=False, compare=False
    )
    #: The slots the floor cut (:func:`_cut`) and the floor they start
    #: at; shared with copies, which read the same cut slots.
    _cuts: dict = field(default_factory=dict, repr=False, compare=False)
    _cuts_floor: float = field(default=-math.inf, repr=False, compare=False)
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
        """Raise the floor to ``time`` (a lower one changes nothing), in O(1).

        Every read sees the new floor at once.  The served snapshot is
        checked against it when next read, and dropped — moving the
        generation — only if the floor changed what it shows.  A floor
        rise only takes free time away, so the certificates stay.
        """
        if time > self._floor:
            self._floor = time

    def trim_before(self, time: float) -> int:
        """Raise the floor to ``time`` (:meth:`advance_floor`), then
        delete every stored slot the floor kills; returns how many.

        Reads see nothing new — the deleted slots were already hidden —
        so the snapshot of the new floor is served first and stays
        served.  The dead rows are found in the store's columns, and
        each is the first entry of its node's bucket, so the Python work
        is per deleted slot and no ``Slot`` is built.  The broker's cycle
        calls this once; every other clock step only raises the floor.
        """
        self.advance_floor(time)
        floor = self._floor
        store = self._store
        served = self._snapshot()
        _, kept, _ = _floor_prefix(store.snapshot(), floor)
        dead = np.flatnonzero(~kept).tolist()
        entries = store.entries()
        for row in dead:
            self._pop_head(entries[row][0][2])
        store.served = served
        return len(dead)

    def _cut_slots(self) -> dict:
        """The slots the current floor cut (:func:`_cut`)."""
        if self._cuts_floor != self._floor:
            self._cuts = {}
            self._cuts_floor = self._floor
        return self._cuts

    def _drop_dead(self, node_id: int) -> None:
        """Delete the stored slots of one node that the floor kills (no
        read sees them), so an insertion coalesces with live ones only."""
        bucket = self._by_node.get(node_id, ())
        while bucket and _clamped_key(bucket[0][0], self._floor) is None:
            self._pop_head(node_id)

    def _pop_head(self, node_id: int) -> None:
        """Delete the first stored entry of a node's bucket."""
        bucket = self._by_node[node_id]
        entry = bucket.pop(0)
        if not bucket:
            del self._by_node[node_id]
        self._store.delete(entry)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The number of slots a read sees."""
        return self._snapshot().slot_count

    def __iter__(self) -> Iterator[Slot]:
        """Iterate slots by non-decreasing start time: the pool as it
        is now, whatever the loop then does to it."""
        return (slot for _, slot in self._snapshot()._entries)

    def ordered(self) -> list[Slot]:
        """The slots as a new list, ordered by non-decreasing start time."""
        return [slot for _, slot in self._snapshot()._entries]

    def __contains__(self, slot: Slot) -> bool:
        return self._stored(slot) is not None

    def _stored(self, slot: Slot) -> Optional[Entry]:
        """The stored entry that reads as ``slot``, or ``None``: the one
        entry of its node with its end."""
        bucket = self._by_node.get(slot.node.node_id)
        if not bucket:
            return None
        index = bisect_left(bucket, slot.end, key=_end_of)
        if index == len(bucket):
            return None
        entry = bucket[index]
        key = _clamped_key(entry[0], self._floor)
        if key is None or key != slot.sort_key() or entry[1].node != slot.node:
            return None
        return entry

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
        raises :class:`AllocationError`, pool unchanged.  A slot the
        floor kills, once coalesced, is not stored: no read would see it.
        """
        self._add(slot)

    def _add(self, slot: Slot) -> None:
        """The body of :meth:`add`, which the pool's own inserts call, so
        that ``add`` counts only its callers' inserts."""
        bucket = self._by_node.get(slot.node.node_id)
        if bucket and bucket[0][0][0] <= self._floor:
            self._drop_dead(slot.node.node_id)
        slot = self._coalesce(slot)
        key = slot.sort_key()
        if _clamped_key(key, self._floor) is None:
            return
        if self._certificates or self._certificates_shared:
            self._gained()
        entry = (key, slot)
        insort(self._by_node.setdefault(slot.node.node_id, []), entry)
        self._store.insert(entry)

    def _coalesce(self, slot: Slot) -> Slot:
        """Absorb same-node neighbours touching ``slot`` and return the union.

        The neighbours are the node's slots as the floor leaves them.
        The pool's shape leaves at most one ending at ``slot.start`` and
        one starting at ``slot.end``; both are removed and the merged
        span returned.  Any other slot not clearing ``slot`` by more than
        the gap overlaps it: that raises, before anything is removed.
        """
        left: Optional[Slot] = None
        right: Optional[Slot] = None
        bucket = self._by_node.get(slot.node.node_id, ())
        for key, other in _live(bucket, self._floor):
            start, end, _ = key
            if abs(end - slot.start) <= COALESCE_GAP:
                left = other
            elif abs(slot.end - start) <= COALESCE_GAP:
                right = other
            elif end - slot.start > COALESCE_GAP and slot.end - start > COALESCE_GAP:
                raise AllocationError(
                    f"slot {slot!r} overlaps free slot "
                    f"{_read(key, other, self._cut_slots())!r}"
                )
        if left is None and right is None:
            return slot
        # A cut left neighbour's stored start reads as the floor again.
        start = slot.start if left is None else left.start
        end = slot.end if right is None else right.end
        for neighbour in (left, right):
            if neighbour is not None:
                self._delete(neighbour)
        return Slot(slot.node, start, end)

    def remove(self, slot: Slot) -> None:
        """Remove one slot; raises :class:`AllocationError` if absent."""
        entry = self._stored(slot)
        if entry is None:
            raise AllocationError(f"slot not in pool: {slot!r}")
        self._delete(entry[1])
        self._removed()

    def _delete(self, slot: Slot) -> None:
        """Delete a stored slot from its bucket and the store."""
        node_id = slot.node.node_id
        bucket = self._by_node[node_id]
        entry = bucket.pop(_find_entry(bucket, (slot.sort_key(), slot)))
        if not bucket:
            del self._by_node[node_id]
        self._store.delete(entry)

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
        leg's host is the first slot on its node, as the floor leaves
        it, starting at or before the window start that the leg
        :func:`~repro.model.slot.fits_from` (the search's own test): the
        leg's own slot for a window just searched on this pool, or a
        remainder of it when an earlier commit of the same broker cycle
        cut it (phase two keeps the spans disjoint).  Raises
        :class:`AllocationError` when a leg has no host — e.g. the floor
        or an earlier commit took the span; the pool is left unchanged
        in that case.

        A cut is a splice of the host's bucket: the host's stored entry
        is replaced in place by the remainders of the host as the floor
        leaves it.  A remainder lies inside its host and shares one of
        its outer ends, and the pool's shape keeps the host's neighbours
        more than :data:`COALESCE_GAP` away, so it can touch nothing but
        its sibling: the cut only removes free time, and the
        certificates stay.  Only a reservation of at most
        ``TIME_EPSILON`` leaves remainders that touch; they merge back
        into the host, inserted as :meth:`add` inserts them, and count
        as a gain.  No remainder overhangs its host, even where the fit
        test's ε reaches past one of its ends: :meth:`Slot.split` clamps
        it.
        """
        # Every leg's host is located before the first cut, so a window
        # with a homeless leg fails whole.  The legs sit on distinct
        # nodes: cutting one cannot invalidate another's host.
        cuts: list[tuple[Slot, Slot, float]] = []
        cut_slots = self._cut_slots()
        start = window.start
        for ws in window.slots:
            bucket = self._by_node.get(ws.slot.node.node_id, ())
            for key, stored in _live(bucket, self._floor):
                if key[0] - TIME_EPSILON <= start and fits_from(
                    last_start(key[1], ws.required_time), start
                ):
                    host = _read(key, stored, cut_slots)
                    cuts.append((stored, host, ws.required_time))
                    break
            else:
                raise AllocationError(
                    f"no free slot on node {ws.slot.node.node_id} contains the "
                    f"reserved span [{start:g}, {start + ws.required_time:g})"
                )
        for stored, host, required_time in cuts:
            remainders = host.split(start, required_time)
            if _carved(remainders):
                self._splice(stored, remainders)
            else:
                self._delete(stored)
                for remainder in remainders:
                    self._add(remainder)

    def _splice(self, stored: Slot, remainders: list[Slot]) -> None:
        """Replace a ``stored`` slot's entry in its bucket by
        ``remainders`` (start-ordered, inside its host, and off its
        neighbours): one store deletion and one insertion each, a
        removal."""
        node_id = stored.node.node_id
        bucket = self._by_node[node_id]
        index = _find_entry(bucket, (stored.sort_key(), stored))
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

    def release(self, window: Window) -> None:
        """Return a committed window's reservations to the pool.

        The inverse of :meth:`commit_window`: each leg's reserved span
        ``[window.start, window.start + required_time)`` is re-inserted and
        coalesced with adjacent same-node slots, so a cut followed by a
        release leaves the pool as it started (up to the remainders of at
        most :data:`TIME_EPSILON` the cut dropped: they are not slots).
        The slot lifecycle of the broker service relies on this to retire
        finished jobs without leaking or fragmenting capacity.

        Spans go in as :meth:`add` puts them, so one the floor kills is
        checked but not stored — unless it touches a live neighbour,
        which only a span ending within two :data:`TIME_EPSILON` of the
        floor can.

        Raises :class:`AllocationError` when any released span overlaps
        free time a read sees (the signature of a double release); the
        pool is left unchanged in that case.
        """
        start = window.start
        spans: list[Slot] = []
        for ws in window.slots:
            node = ws.slot.node
            span_end = start + ws.required_time
            # ``add``'s overlap and touch tests, so a span that passes is
            # inserted, and one that is dead and touches nothing is not.
            stays = floor_survivors(start, span_end, self._floor)[0]
            bucket = self._by_node.get(node.node_id, ())
            for (slot_start, slot_end, _), _slot in _live(bucket, self._floor):
                if not span_end - slot_start > COALESCE_GAP:
                    # Start-ordered: nothing later overlaps either.
                    stays |= abs(span_end - slot_start) <= COALESCE_GAP
                    break
                if slot_end - start > COALESCE_GAP:
                    raise AllocationError(
                        f"released span [{start:g}, {span_end:g}) on node "
                        f"{node.node_id} overlaps free slot "
                        f"[{slot_start:g}, {slot_end:g}) — double release?"
                    )
                stays |= abs(slot_end - start) <= COALESCE_GAP
            if stays:
                spans.append(Slot(node, start, span_end))
        for slot in spans:
            self._add(slot)

    def copy(self) -> "SlotPool":
        """A shallow copy (slots are immutable, so this is fully safe)."""
        # The served snapshot, shared with the twin until either side
        # mutates (snapshots are never written in place; each store
        # drops its own on its first edit): scan plans built on one
        # serve the other.
        self._snapshot()
        buckets = {node_id: list(bucket) for node_id, bucket in self._by_node.items()}
        twin = SlotPool(buckets)
        twin._store = self._store.copy(twin._by_node)
        twin._floor = self._floor
        twin._served_at = self._served_at
        twin._cuts = self._cut_slots()
        twin._cuts_floor = self._floor
        twin._certificates = self._certificates
        twin._certificates_shared = self._certificates_shared = True
        return twin

    # ------------------------------------------------------------------
    # Negative certificates
    # ------------------------------------------------------------------
    def certified(self, key) -> bool:
        """Whether a search keyed ``key`` was proven empty on this pool
        since it last gained free time."""
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
        """Mutation counter: moves on every edit, and on a floor rise
        that changes what a read sees.

        Two reads with equal generations saw identical contents, so
        callers key snapshot and scan-plan caches on it.
        """
        self._snapshot()
        return self._store.generation

    def as_arrays(self) -> SlotArrays:
        """The pool as a columnar snapshot (cached per generation).

        The store's columns (:meth:`SlotColumnStore.snapshot`: every
        edit since the last read applied in one column rewrite) with the
        floor applied by :func:`_clamp`, which rewrites only the rows
        starting at or before it.  The *same* snapshot object is
        returned until the pool mutates or the floor changes what it
        shows — so repeated scans of an unchanged pool (the broker's
        phase-one batch, admission between cycles, benchmark repeats)
        reuse both the columns and any scan plans cached on them.  A
        search reads its winners' slots one row at a time (``slot_at``,
        which builds a floor-cut ``Slot`` only for a cut row) and builds
        no ``slot_objects()`` list.
        """
        return self._snapshot()

    def _snapshot(self) -> SlotArrays:
        """The snapshot of the current generation: the store's
        ``served`` one, which every edit drops, checked against the
        floor it was clamped at.

        A snapshot that cut no slot shows the stored slots the old floor
        kept, and a higher floor kills every slot a lower one killed, so
        it is still current when the new floor changes none of its rows.
        A cut slot starts at the floor, so any rise moves it.
        """
        store = self._store
        floor = self._floor
        arrays = store.served
        if arrays is not None:
            clamped_at, cut = self._served_at
            if clamped_at == floor:
                return arrays
            if not cut:
                _, kept, cut = _floor_prefix(arrays, floor)
                if kept.all() and not cut.any():
                    self._served_at = (floor, False)
                    return arrays
            store.view_changed()
        if self._served_at[0] != floor:
            self._removed()  # a twin sharing the certificates sees more
        arrays, cut = _clamp(store.snapshot(), floor, self._cut_slots())
        store.served = arrays
        self._served_at = (floor, cut)
        return arrays

    def total_free_time(self) -> float:
        """Sum of all slot lengths in the pool."""
        return left_sum(slot.length for slot in self)

    def by_node(self) -> dict[int, list[Slot]]:
        """Slots grouped by node id (each group start-ordered).

        Served from the per-node index; the returned lists are fresh
        copies, so callers may mutate them freely.
        """
        grouped = {}
        for node_id, bucket in self._by_node.items():
            slots = [
                _read(key, slot, self._cut_slots())
                for key, slot in _live(bucket, self._floor)
            ]
            if slots:
                grouped[node_id] = slots
        return grouped

    def node_count(self) -> int:
        """Number of distinct nodes contributing at least one slot."""
        return self._snapshot().node_count

    def assert_disjoint_per_node(self) -> None:
        """Invariant check of the pool's shape: slots of one node lie
        more than :data:`COALESCE_GAP` apart (:func:`_has_neighbours`).

        The broker runs it every cycle under ``check_invariants``; a
        pool mutated only through its methods always passes.
        """
        for node_id, bucket in self._by_node.items():
            if _has_neighbours(_live(bucket, self._floor)):
                raise AllocationError(f"slots on node {node_id} overlap or touch")


def _end_of(entry: Entry) -> float:
    """An entry's end: a node's stored slots are disjoint, so their ends
    rise with their starts."""
    return entry[0][1]
