"""Columnar (structure-of-arrays) snapshots of a slot pool.

The vectorized AEP kernel (:mod:`repro.core.vectorized`) does not walk
``Slot`` objects — it precomputes eligibility, task runtime, cost and
expiry for a whole scan with numpy column arithmetic and only
materializes objects for the winning window.  This module owns that
column layout:

* :class:`SlotArrays` — per-slot columns (``start``, ``end``,
  ``node_row``) plus a *node table* of the distinct nodes behind the
  slots (performance, price, hardware spec, precomputed power draw),
  ordered by ascending ``node_id``.  Per-request quantities are
  per-*node*, so the table keeps the derived columns O(nodes) and a
  single ``take`` broadcasts them per slot.
* :class:`SlotColumnStore` — the *incremental* maintenance engine
  behind :meth:`repro.model.SlotPool.as_arrays`.  Edits are recorded,
  and the columns catch up on read: a mutation of the pool only notes
  which entries came and went, and the next snapshot (or ``copy()``)
  rewrites the columns once for every edit since the last read — one
  ``concatenate`` of the kept row runs and the new rows, never a
  per-slot Python rebuild.  Snapshots are byte-equal to
  :meth:`SlotArrays.from_slots` over the same slots (property-tested),
  so the vectorized kernel cannot tell the difference.

The arrays are a *snapshot*: building one from a :class:`SlotPool`
captures the pool at that instant; the pool serves one snapshot object
per mutation generation (see :meth:`repro.model.SlotPool.as_arrays`).
A snapshot keeps a copy of the pool's ``(sort key, slot)`` entry list
and builds the ``Slot`` list (:meth:`SlotArrays.slot_objects`) only when
first asked; the winning window is built from those slots, never from
the columns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from repro.model.job import ResourceRequest
from repro.model.resource import CpuNode
from repro.model.slot import Slot

#: A pool entry: the slot's sort key ``(start, end, node_id)`` and the slot.
Entry = tuple[tuple[float, float, int], Slot]

_KEY = itemgetter(0)


def _frozen(rows: np.ndarray) -> np.ndarray:
    """``rows``, marked read-only: snapshots and twins share them."""
    rows.flags.writeable = False
    return rows


#: The column block of an empty store, and the node ids it indexes.
_NO_ROWS = _frozen(np.empty((3, 0), dtype=np.float64))
_NO_IDS = np.empty(0, dtype=np.int64)


@dataclass(eq=False)
class SlotArrays:
    """Immutable columnar snapshot of an ordered slot list.

    Per-slot columns are parallel to the start-ordered slot list; the
    node table is ordered by ascending ``node_id`` (a total order that
    incremental maintenance can keep without inspecting the slot list),
    and ``node_row[i]`` indexes slot ``i``'s node within it.

    Equality and hashing are by identity (``eq=False``): a field-wise
    ``==`` would compare numpy columns, which raises for more than one
    slot.
    """

    # Per-slot columns (length = slot count).
    start: np.ndarray
    end: np.ndarray
    node_row: np.ndarray
    # Node-table columns (length = distinct node count).
    node_id: np.ndarray
    performance: np.ndarray
    price: np.ndarray
    clock: np.ndarray
    ram: np.ndarray
    disk: np.ndarray
    power: np.ndarray
    os_names: list[str]
    #: The ``Slot`` objects the columns describe, row for row; built
    #: from ``_entries`` on the first :meth:`slot_objects` call.
    _slots: Optional[list[Slot]] = field(default=None, repr=False)
    #: The pool's entries at the snapshot's generation (a private copy).
    _entries: Sequence[Entry] = field(default=(), repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_slots(cls, slots: Sequence[Slot]) -> "SlotArrays":
        """Snapshot a start-ordered slot sequence into columns."""
        slots = list(slots)
        count = len(slots)
        start = np.empty(count, dtype=np.float64)
        end = np.empty(count, dtype=np.float64)
        node_row = np.empty(count, dtype=np.int64)
        rows: dict[int, int] = {}
        seen: list[CpuNode] = []
        for index, slot in enumerate(slots):
            start[index] = slot.start
            end[index] = slot.end
            node = slot.node
            row = rows.get(node.node_id)
            if row is None:
                row = len(seen)
                rows[node.node_id] = row
                seen.append(node)
            node_row[index] = row
        # Table order is ascending node id — the one total order the
        # incremental store (SlotColumnStore) can maintain under
        # arbitrary node arrival/departure, so full rebuilds and
        # delta-maintained snapshots agree byte for byte.
        order = sorted(range(len(seen)), key=lambda r: seen[r].node_id)
        nodes = [seen[r] for r in order]
        remap = np.empty(len(seen), dtype=np.int64)
        remap[np.array(order, dtype=np.int64)] = np.arange(len(seen), dtype=np.int64)
        node_row = remap[node_row] if count else node_row
        return cls(
            start=start,
            end=end,
            node_row=node_row,
            _slots=slots,
            **_table_columns(nodes),
        )

    # ------------------------------------------------------------------
    # Shape and views
    # ------------------------------------------------------------------
    @property
    def slot_count(self) -> int:
        return int(self.start.shape[0])

    @property
    def node_count(self) -> int:
        return int(self.node_id.shape[0])

    def slot_objects(self) -> list[Slot]:
        """The snapshot's source slots, parallel to the per-slot columns
        (built on the first call, then cached)."""
        if self._slots is None:
            self._slots = [slot for _, slot in self._entries]
        return self._slots

    # ------------------------------------------------------------------
    # Request-derived columns
    # ------------------------------------------------------------------
    def match_mask(self, request: ResourceRequest) -> np.ndarray:
        """Per-node ``properHardwareAndSoftware`` verdicts (bool array).

        Same comparisons as :func:`repro.model.resource.matches_spec`,
        evaluated once per node instead of once per scanned slot.
        """
        mask = self.performance >= request.min_performance
        mask &= self.clock >= request.min_clock_speed
        mask &= self.ram >= request.min_ram
        mask &= self.disk >= request.min_disk
        if request.required_os is not None:
            required = request.required_os
            mask &= np.fromiter(
                (name == required for name in self.os_names),
                dtype=bool,
                count=self.node_count,
            )
        if request.max_price_per_unit is not None:
            mask &= self.price <= request.max_price_per_unit
        return mask


def _table_columns(nodes: Sequence[CpuNode]) -> dict:
    """The node-table fields of a snapshot for nodes in ascending id order."""
    return dict(
        node_id=np.array([n.node_id for n in nodes], dtype=np.int64),
        performance=np.array([n.performance for n in nodes], dtype=np.float64),
        price=np.array([n.price_per_unit for n in nodes], dtype=np.float64),
        clock=np.array([n.spec.clock_speed for n in nodes], dtype=np.float64),
        ram=np.array([n.spec.ram for n in nodes], dtype=np.int64),
        disk=np.array([n.spec.disk for n in nodes], dtype=np.int64),
        # power() squares the performance in Python; precomputing it
        # per node keeps the energy column byte-identical to the
        # object path (numpy's ``**`` lowers to a different libm call).
        power=np.array([n.power() for n in nodes], dtype=np.float64),
        os_names=[n.spec.os for n in nodes],
    )


class SlotColumnStore:
    """The columnar mirror of a mutating pool's ordered entry list.

    Edits are recorded; the columns catch up on read.  Rebuilding
    :class:`SlotArrays` per mutation is a per-slot Python loop, and
    shifting the columns per edit made a cycle's k commits pay k column
    moves that nobody reads before the next snapshot.  So the store
    keeps:

    * ``_rows`` — one read-only ``(3, n)`` float block (start, end and
      node-table row per slot) describing ``_entries``, the pool's entry
      list as it was at the last read, row for row;
    * the edits since then, by entry: ``_fresh`` (inserted and still
      present, keyed by ``id``), ``_gone`` (entries of ``_entries``
      deleted one at a time) and ``_floor`` (every row of ``_entries``
      sorting below the last trim's bound is gone).

    ``insert`` / ``delete`` / ``replace_prefix`` / ``load_sorted`` only
    record; node reference counts and ``generation`` move at once.
    :meth:`_catch_up` is the one function that writes columns, called
    by :meth:`snapshot` and :meth:`copy` when edits are pending: Python
    work per edit, numpy work per row.  Blocks are never written after
    they are built, so snapshots and twins share them without copying.

    The *node table* is maintained as a reference-counted registry in
    ascending ``node_id`` order: a node enters when its first slot
    arrives and leaves when its last slot goes, so fully trimmed nodes
    never linger in snapshots.  When the table changed since the last
    read, the catch-up re-points the kept rows at the new table.
    ``generation`` increments on every mutation; callers cache
    snapshots per generation.
    """

    __slots__ = (
        "_rows",
        "_row_ids",
        "_entries",
        "_fresh",
        "_gone",
        "_floor",
        "_synced",
        "_node_objs",
        "_node_refs",
        "_sorted_ids",
        "_table",
        "generation",
    )

    def __init__(self):
        self._rows = _NO_ROWS
        #: The node ids the third row of ``_rows`` indexes.
        self._row_ids = _NO_IDS
        self._entries: list[Entry] = []
        self._fresh: dict[int, Entry] = {}
        self._gone: list[Entry] = []
        self._floor = 0
        #: The generation ``_rows`` describes.
        self._synced = 0
        self._node_objs: dict[int, CpuNode] = {}
        self._node_refs: dict[int, int] = {}
        self._sorted_ids: list[int] = []
        self._table: Optional[dict] = None
        self.generation = 0

    # ------------------------------------------------------------------
    # Mutation (recorded, not applied)
    # ------------------------------------------------------------------
    def _retain(self, node: CpuNode) -> None:
        """Count one more slot of ``node`` (the first object registered
        under a ``node_id`` is the one the table keeps)."""
        node_id = node.node_id
        refs = self._node_refs.get(node_id)
        if refs is None:
            self._node_refs[node_id] = 1
            self._node_objs[node_id] = node
            insort(self._sorted_ids, node_id)
            self._table = None
        else:
            self._node_refs[node_id] = refs + 1

    def _release(self, node_id: int) -> None:
        """Count one slot of the node fewer; its last slot takes the
        node out of the table at once, so snapshots list nodes with
        slots only."""
        refs = self._node_refs[node_id] - 1
        if refs:
            self._node_refs[node_id] = refs
        else:
            del self._node_refs[node_id]
            del self._node_objs[node_id]
            self._sorted_ids.remove(node_id)
            self._table = None

    def insert(self, entry: Entry) -> None:
        """Record that the pool inserted ``entry`` into its list."""
        self._fresh[id(entry)] = entry
        self._retain(entry[1].node)
        self.generation += 1

    def delete(self, entry: Entry) -> None:
        """Record that the pool deleted ``entry`` (the list's own object)."""
        if self._fresh.pop(id(entry), None) is None:
            self._gone.append(entry)
        self._release(entry[1].node.node_id)
        self.generation += 1

    def replace_prefix(
        self,
        probe: tuple,
        prefix: Sequence[Entry],
        entries: Sequence[Entry],
        removed: Sequence[Slot],
    ) -> None:
        """Record ``list[:cutoff] = entries`` in the pool.

        ``prefix`` is the old ``list[:cutoff]`` — every entry sorting
        below ``probe`` — and ``removed`` its slots with no successor in
        ``entries``; every other slot is kept or rewritten on the same
        node, so theirs are the only node references to drop.
        """
        self._floor = max(self._floor, bisect_left(self._entries, probe))
        fresh = self._fresh
        for entry in prefix:
            fresh.pop(id(entry), None)
        for entry in entries:
            fresh[id(entry)] = entry
        for slot in removed:
            self._release(slot.node.node_id)
        self.generation += 1

    def load_sorted(self, entries: Sequence[Entry]) -> None:
        """Fill an empty store from the pool's sorted entry list.

        The bulk twin of one :meth:`insert` per slot: snapshots and the
        generation equal those of a store the same slots were inserted
        into one by one.
        """
        if self._entries or self._fresh:
            raise ValueError("load_sorted needs an empty store")
        self._fresh = dict(zip(map(id, entries), entries))
        for _, slot in entries:
            self._retain(slot.node)
        self.generation += len(entries)

    # ------------------------------------------------------------------
    # Catch-up: the one writer of the columns
    # ------------------------------------------------------------------
    def _catch_up(self, entries: Sequence[Entry]) -> None:
        """Apply every recorded edit to the columns in one rewrite.

        ``entries`` is the pool's current list; a copy of it becomes
        the list the new block describes.  Kept rows move as runs of
        ``_rows`` between edit points; new rows are written from their
        sort keys, whose third field becomes the node's table row.
        """
        base = self._entries
        count = len(base)
        floor = self._floor
        rows = self._rows
        ids = self._node_table()["node_id"]
        if ids is not self._row_ids:
            moved = np.searchsorted(ids, self._row_ids)
            rows = np.vstack((rows[:2], moved[rows[2].astype(np.intp)]))
        drops = []
        for entry in self._gone:
            index = bisect_left(base, (entry[0],))
            while base[index] is not entry:
                index += 1
            if index >= floor:
                drops.append(index)
        drops.sort()
        keys = sorted(map(_KEY, self._fresh.values()))
        # Keys below the first kept row go right after the floor; the
        # rest are placed by a bisect of ``base``.
        below = bisect_left(keys, base[floor][0]) if floor < count else len(keys)
        points = [floor] * below
        points += [bisect_left(base, (key,), floor) for key in keys[below:]]
        new = np.fromiter(chain.from_iterable(keys), np.float64, 3 * len(keys))
        new = new.reshape(-1, 3).T
        new[2] = np.searchsorted(ids, new[2])
        pieces = []
        low = floor
        placed = 0
        for stop in drops + [count]:
            limit = bisect_right(points, stop, placed)
            while placed < limit:
                point = points[placed]
                group = bisect_right(points, point, placed, limit)
                if point > low:
                    pieces.append(rows[:, low:point])
                pieces.append(new[:, placed:group])
                low = point
                placed = group
            if stop > low:
                pieces.append(rows[:, low:stop])
            low = stop + 1
        self._rows = _frozen(np.concatenate(pieces, axis=1)) if pieces else _NO_ROWS
        self._row_ids = ids
        self._entries = list(entries)
        self._fresh = {}
        self._gone = []
        self._floor = 0
        self._synced = self.generation

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _node_table(self) -> dict:
        """The node-table fields of a snapshot (cached until node
        arrival/departure; never written in place, so snapshots and
        twins share them)."""
        if self._table is None:
            self._table = _table_columns(
                [self._node_objs[node_id] for node_id in self._sorted_ids]
            )
        return self._table

    def snapshot(self, entries: Sequence[Entry]) -> SlotArrays:
        """The pool as a fresh :class:`SlotArrays`.

        ``entries`` is the pool's own list — the slots the rows mirror —
        so the snapshot's ``slot_objects()`` returns the pool's
        instances (matching :meth:`SlotArrays.from_slots`).
        """
        if self._synced != self.generation:
            self._catch_up(entries)
        rows = self._rows
        return SlotArrays(
            start=rows[0],
            end=rows[1],
            node_row=rows[2].astype(np.int64),
            _entries=self._entries,
            **self._node_table(),
        )

    def copy(self, entries: Sequence[Entry]) -> "SlotColumnStore":
        """An independent twin of the store behind ``entries``: it
        catches up first, then shares the (read-only) block and copies
        the node registries."""
        if self._synced != self.generation:
            self._catch_up(entries)
        twin = SlotColumnStore.__new__(SlotColumnStore)
        twin._rows = self._rows
        twin._row_ids = self._row_ids
        twin._entries = self._entries
        twin._fresh = {}
        twin._gone = []
        twin._floor = 0
        twin._synced = self._synced
        twin._node_objs = dict(self._node_objs)
        twin._node_refs = dict(self._node_refs)
        twin._sorted_ids = list(self._sorted_ids)
        twin._table = self._table
        twin.generation = self.generation
        return twin
