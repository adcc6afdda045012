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
  behind :meth:`repro.model.SlotPool.as_arrays`: the per-slot columns
  kept row for row in the pool's own slot order, each mutation applied
  at the list position the pool hands over, so a snapshot is a copy of
  the rows in use instead of a per-slot Python rebuild.  Snapshots are
  byte-equal to :meth:`SlotArrays.from_slots` over the same slots
  (property-tested), so the vectorized kernel cannot tell the difference.

The arrays are a *snapshot*: building one from a :class:`SlotPool`
captures the pool at that instant; the pool serves one snapshot object
per mutation generation (see :meth:`repro.model.SlotPool.as_arrays`),
assembling fresh generations from the incremental store rather than
re-walking objects.  A snapshot keeps the ``Slot`` objects it was taken
from (:meth:`SlotArrays.slot_objects`); the winning window is built from
those, never from the columns.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.model.job import ResourceRequest
from repro.model.resource import CpuNode
from repro.model.slot import Slot


@dataclass
class SlotArrays:
    """Immutable columnar snapshot of an ordered slot list.

    Per-slot columns are parallel to the start-ordered slot list; the
    node table is ordered by ascending ``node_id`` (a total order that
    incremental maintenance can keep without inspecting the slot list),
    and ``node_row[i]`` indexes slot ``i``'s node within it.
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
    #: The ``Slot`` objects the columns describe, row for row.
    _slots: list[Slot]

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
            _slots=slots,
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
        """The snapshot's source slots, parallel to the per-slot columns."""
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


class SlotColumnStore:
    """The columnar mirror of a mutating pool's ordered slot list.

    Rebuilding :class:`SlotArrays` from scratch — a per-slot Python loop
    — after *any* mutation made per-cycle snapshot cost O(pool) in
    interpreted code however small the delta was, and a long-running
    broker mutates its pool every cycle (commits, releases, trims,
    horizon extensions).  This store keeps the per-slot columns alive
    across mutations, *position for position* with the pool's list: row
    ``i`` of ``_start`` / ``_end`` / ``_nid`` describes the pool's
    ``i``-th slot.  The pool owns the one sorted order and hands over
    the position its own bisect found:

    * ``insert`` / ``delete`` shift the column tails by one row (three
      contiguous ``memmove``-style moves) — no second bisect, no lookup
      table, nothing left behind to clean up later.
    * ``replace_prefix`` swaps the first rows for a rewritten prefix in
      one splice — what a virtual-clock trim amounts to.
    * ``snapshot`` is two slice copies plus one ``searchsorted`` for
      the node rows.  The result is byte-equal to
      ``SlotArrays.from_slots`` over the pool's ordered slots.

    The column buffers grow by doubling and are never larger than twice
    the largest pool seen, so storage stays proportional to the pool —
    the flat-memory requirement of soak serving.

    The *node table* is maintained as a reference-counted registry in
    ascending ``node_id`` order: a node enters when its first slot
    arrives and leaves when its last slot goes, so fully trimmed nodes
    never linger in snapshots.  ``generation`` increments on every
    mutation; callers cache snapshots per generation.
    """

    __slots__ = (
        "_start",
        "_end",
        "_nid",
        "_count",
        "_node_objs",
        "_node_refs",
        "_sorted_ids",
        "_table",
        "generation",
    )

    def __init__(self):
        self._start = np.empty(0, dtype=np.float64)
        self._end = np.empty(0, dtype=np.float64)
        self._nid = np.empty(0, dtype=np.int64)
        #: Rows in use (the pool's slot count); the buffers may be longer.
        self._count = 0
        self._node_objs: dict[int, CpuNode] = {}
        self._node_refs: dict[int, int] = {}
        self._sorted_ids: list[int] = []
        self._table: Optional[dict] = None
        self.generation = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _splice(
        self, low: int, high: int, rows: Sequence[tuple[float, float, int]]
    ) -> None:
        """Mirror ``list[low:high] = ...`` in the pool, given the sort
        keys — ``(start, end, node_id)`` — of the slots spliced in."""
        count = self._count
        middle = low + len(rows)
        total = middle + count - high
        capacity = self._start.shape[0]
        if total > capacity:
            capacity = max(total, 2 * capacity)
            for name in ("_start", "_end", "_nid"):
                old = getattr(self, name)
                grown = np.empty(capacity, dtype=old.dtype)
                grown[:count] = old[:count]
                setattr(self, name, grown)
        for index, column in enumerate((self._start, self._end, self._nid)):
            column[middle:total] = column[high:count]
            column[low:middle] = [row[index] for row in rows]
        self._count = total

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

    def insert(self, position: int, slot: Slot) -> None:
        """Mirror ``list.insert(position, ...)`` of ``slot`` in the pool."""
        self._splice(position, position, (slot.sort_key(),))
        self._retain(slot.node)
        self.generation += 1

    def delete(self, position: int, slot: Slot) -> None:
        """Mirror ``del list[position]`` (the row of ``slot``) in the pool."""
        self._splice(position, position + 1, ())
        self._release(slot.node.node_id)
        self.generation += 1

    def replace_prefix(
        self,
        cutoff: int,
        removed: Sequence[Slot],
        entries: Sequence[tuple[tuple[float, float, int], Slot]],
    ) -> None:
        """Mirror ``list[:cutoff] = entries`` in the pool.

        ``removed`` are the slots of the old prefix with no successor in
        ``entries``; every other row is kept or rewritten on the same
        node, so theirs are the only node references to drop.
        """
        self._splice(0, cutoff, [key for key, _ in entries])
        for slot in removed:
            self._release(slot.node.node_id)
        self.generation += 1

    def load_sorted(
        self, entries: Sequence[tuple[tuple[float, float, int], Slot]]
    ) -> None:
        """Fill an empty store from the pool's ``(sort key, slot)`` list.

        The bulk twin of one :meth:`insert` per slot: the rows are
        written in one splice, so no per-slot shift is paid.  Snapshots
        equal those of a store the same slots were inserted into one by
        one.
        """
        if self._count:
            raise ValueError("load_sorted needs an empty store")
        self._splice(0, 0, [key for key, _ in entries])
        for _, slot in entries:
            self._retain(slot.node)
        self.generation += len(entries)

    # ------------------------------------------------------------------
    # Snapshot assembly
    # ------------------------------------------------------------------
    def _node_table(self) -> dict:
        """The node-table fields of a snapshot (cached until node
        arrival/departure; never written in place, so snapshots and
        twins share them)."""
        if self._table is None:
            nodes = [self._node_objs[node_id] for node_id in self._sorted_ids]
            self._table = dict(
                node_id=np.array(self._sorted_ids, dtype=np.int64),
                performance=np.array([n.performance for n in nodes], dtype=np.float64),
                price=np.array([n.price_per_unit for n in nodes], dtype=np.float64),
                clock=np.array([n.spec.clock_speed for n in nodes], dtype=np.float64),
                ram=np.array([n.spec.ram for n in nodes], dtype=np.int64),
                disk=np.array([n.spec.disk for n in nodes], dtype=np.int64),
                power=np.array([n.power() for n in nodes], dtype=np.float64),
                os_names=[n.spec.os for n in nodes],
            )
        return self._table

    def snapshot(self, ordered_slots: list[Slot]) -> SlotArrays:
        """Copy the rows in use into a fresh :class:`SlotArrays`.

        ``ordered_slots`` is the pool's own object list — the slots the
        rows mirror — so the snapshot's ``slot_objects()`` returns the
        pool's instances (matching :meth:`SlotArrays.from_slots`).
        """
        count = self._count
        table = self._node_table()
        node_row = np.searchsorted(table["node_id"], self._nid[:count])
        return SlotArrays(
            start=self._start[:count].copy(),
            end=self._end[:count].copy(),
            node_row=node_row.astype(np.int64, copy=False),
            _slots=ordered_slots,
            **table,
        )

    def copy(self) -> "SlotColumnStore":
        """An independent twin (numpy buffers and registries copied)."""
        twin = SlotColumnStore.__new__(SlotColumnStore)
        count = self._count
        twin._start = self._start[:count].copy()
        twin._end = self._end[:count].copy()
        twin._nid = self._nid[:count].copy()
        twin._count = count
        twin._node_objs = dict(self._node_objs)
        twin._node_refs = dict(self._node_refs)
        twin._sorted_ids = list(self._sorted_ids)
        twin._table = self._table
        twin.generation = self.generation
        return twin
