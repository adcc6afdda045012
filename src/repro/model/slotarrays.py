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
* :class:`SlotColumnStore` — the pool's one total order: its
  start-ordered entry list, and the columns behind
  :meth:`repro.model.SlotPool.as_arrays`.  Edits are recorded, and the
  list and the columns catch up on read: a mutation of the pool only
  notes which entries came and went, and the next read splices the list
  and rewrites the columns once for every edit since the last — the same
  runs of kept entries and rows, one ``concatenate``, never a per-slot
  Python rebuild.  Snapshots are byte-equal to
  :meth:`SlotArrays.from_slots` over the same slots (property-tested),
  so the vectorized kernel cannot tell the difference.

The arrays are a *snapshot*: building one from a :class:`SlotPool`
captures the pool at that instant; the pool serves one snapshot object
per mutation generation (see :meth:`repro.model.SlotPool.as_arrays`).
A snapshot holds the store's entry list of its generation (never
written after it is built) and builds the ``Slot`` list
(:meth:`SlotArrays.slot_objects`) only when first asked; a search reads
the slots of its winning window one row at a time
(:meth:`SlotArrays.slot_at`), never from the columns.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    #: The store's entry list at the snapshot's generation.
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

    def slot_at(self, row: int) -> Slot:
        """The source slot of row ``row``, read without building
        :meth:`slot_objects`: a search materializes only its winners."""
        slots = self._slots
        return self._entries[row][1] if slots is None else slots[row]

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


#: A snapshot's numpy node-table columns, as :func:`_table_columns`
#: builds them (``os_names``, the table's one list, is not among them).
NODE_TABLE_COLUMNS = (
    "node_id", "performance", "price", "clock", "ram", "disk", "power"
)


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
    """The pool's one start-ordered entry list, and its columns.

    Edits are recorded; the list and the columns catch up on read.
    Rebuilding :class:`SlotArrays` per mutation is a per-slot Python
    loop, and shifting the columns per edit made a cycle's k commits
    pay k column moves that nobody reads before the next snapshot.  So
    the store keeps:

    * ``_entries`` — the pool's ``(sort key, slot)`` entries at the last
      read — and ``_rows``, one read-only ``(3, n)`` float block (start,
      end and node-table row per entry) describing them row for row;
    * the edits since then, by entry: ``_fresh`` (inserted and still
      present, keyed by ``id``) and ``_gone`` (entries of ``_entries``
      deleted);
    * ``served`` — the snapshot the pool serves for the current
      generation, or ``None``.  Every edit drops it, so a mutated pool
      holds no snapshot of an older generation, nor the scan plans
      cached on one; so does :meth:`view_changed`.

    ``insert`` / ``delete`` / ``load_sorted`` only record; ``size`` (the
    entry count) and ``generation`` move at once.
    :meth:`_catch_up` is the one writer of the list and the columns,
    called by every read with edits pending: Python work per edit, numpy
    work per row.  Lists and blocks are never written after they are
    built, so snapshots and twins share them without copying.

    The node set is the key set of the pool's per-node buckets
    (``buckets``; the pool updates a bucket before it records the
    edit).  The *node table* lists those nodes by ascending id, each as
    its bucket's first node — the one :meth:`SlotArrays.from_slots`
    picks — and is cached until a bucket is created or deleted; the
    catch-up then re-points the kept rows at the new table.
    """

    __slots__ = (
        "_rows",
        "_row_ids",
        "_entries",
        "_fresh",
        "_gone",
        "_synced",
        "_buckets",
        "_table",
        "served",
        "size",
        "generation",
    )

    def __init__(self, buckets: dict[int, list[Entry]]):
        self._rows = _NO_ROWS
        #: The node ids the third row of ``_rows`` indexes.
        self._row_ids = _NO_IDS
        self._entries: list[Entry] = []
        self._fresh: dict[int, Entry] = {}
        self._gone: list[Entry] = []
        #: The generation ``_entries`` and ``_rows`` describe.
        self._synced = 0
        self._buckets = buckets
        self._table: Optional[dict] = None
        self.served: Optional[SlotArrays] = None
        self.size = 0
        self.generation = 0

    # ------------------------------------------------------------------
    # Mutation (recorded, not applied)
    # ------------------------------------------------------------------
    def _recorded(self, count: int) -> None:
        """Close the record of an edit that changed the entry count by
        ``count``.  An edit only creates buckets or only deletes them:
        it did either iff the node table no longer has one row each."""
        table = self._table
        if table is not None and len(table["node_id"]) != len(self._buckets):
            self._table = None
        self.served = None
        self.size += count
        self.generation += 1

    def insert(self, entry: Entry) -> None:
        """Record that the pool inserted ``entry``."""
        self._fresh[id(entry)] = entry
        self._recorded(1)

    def delete(self, entry: Entry) -> None:
        """Record that the pool deleted ``entry`` (the list's own object)."""
        if self._fresh.pop(id(entry), None) is None:
            self._gone.append(entry)
        self._recorded(-1)

    def view_changed(self) -> None:
        """Record that what the pool's reads see changed with no entry
        edited (a floor rise): the served snapshot goes and the
        generation moves, and nothing is left to catch up on."""
        if self._synced == self.generation:
            self._synced += 1
        self.served = None
        self.generation += 1

    def load_sorted(self, entries: Sequence[Entry]) -> None:
        """Fill an empty store from the pool's sorted entry list.

        The bulk twin of one :meth:`insert` per slot: snapshots and the
        generation equal those of a store the same slots were inserted
        into one by one.
        """
        if self.size:
            raise ValueError("load_sorted needs an empty store")
        self._fresh = dict(zip(map(id, entries), entries))
        self._table = None
        self.served = None
        self.size = len(entries)
        self.generation += len(entries)

    # ------------------------------------------------------------------
    # Catch-up: the one writer of the list and the columns
    # ------------------------------------------------------------------
    def _catch_up(self) -> None:
        """Apply every recorded edit to the list and the columns.

        Kept entries and their rows move as the same runs of
        ``_entries`` and ``_rows`` between edit points; new rows are
        written from their sort keys, whose third field becomes the
        node's table row.
        """
        base = self._entries
        count = len(base)
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
            drops.append(index)
        drops.sort()
        fresh = sorted(self._fresh.values(), key=_KEY)
        keys = list(map(_KEY, fresh))
        points = [bisect_left(base, (key,)) for key in keys]
        new = np.fromiter(chain.from_iterable(keys), np.float64, 3 * len(keys))
        new = new.reshape(-1, 3).T
        new[2] = np.searchsorted(ids, new[2])
        pieces = []
        entries: list[Entry] = []
        low = 0
        placed = 0
        for stop in drops + [count]:
            limit = bisect_right(points, stop, placed)
            while placed < limit:
                point = points[placed]
                group = bisect_right(points, point, placed, limit)
                if point > low:
                    pieces.append(rows[:, low:point])
                    entries += base[low:point]
                pieces.append(new[:, placed:group])
                entries += fresh[placed:group]
                low = point
                placed = group
            if stop > low:
                pieces.append(rows[:, low:stop])
                entries += base[low:stop]
            low = stop + 1
        self._rows = _frozen(np.concatenate(pieces, axis=1)) if pieces else _NO_ROWS
        self._row_ids = ids
        self._entries = entries
        self._fresh = {}
        self._gone = []
        self._synced = self.generation

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _node_table(self) -> dict:
        """The node-table fields of a snapshot (cached until a bucket
        is created or deleted; never written in place, so snapshots and
        twins share them)."""
        if self._table is None:
            buckets = self._buckets
            self._table = _table_columns(
                [buckets[node_id][0][1].node for node_id in sorted(buckets)]
            )
        return self._table

    def entries(self) -> list[Entry]:
        """The pool's entries, start-ordered.  The list is never
        written after it is returned: later edits build a new one."""
        if self._synced != self.generation:
            self._catch_up()
        return self._entries

    def snapshot(self) -> SlotArrays:
        """The pool as a fresh :class:`SlotArrays`, whose
        ``slot_objects()`` are the pool's own instances (matching
        :meth:`SlotArrays.from_slots`).  Always built: the pool keeps
        the one it serves in ``served``."""
        entries = self.entries()
        rows = self._rows
        return SlotArrays(
            start=rows[0],
            end=rows[1],
            node_row=rows[2].astype(np.int64),
            _entries=entries,
            **self._node_table(),
        )

    def copy(self, buckets: dict[int, list[Entry]]) -> "SlotColumnStore":
        """An independent twin over ``buckets``, a copy of this store's
        pool's buckets: it shares the read-only list, block and node
        table and copies the edits not yet caught up, so each side
        catches up only if it is read."""
        twin = SlotColumnStore(buckets)
        twin._entries = self._entries
        twin._rows = self._rows
        twin._row_ids = self._row_ids
        twin._fresh = dict(self._fresh)
        twin._gone = list(self._gone)
        twin._synced = self._synced
        twin._table = self._table
        twin.served = self.served
        twin.size = self.size
        twin.generation = self.generation
        return twin
