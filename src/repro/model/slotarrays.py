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
  behind :meth:`repro.model.SlotPool.as_arrays`: mutations append or
  tombstone storage rows in O(1), dead rows are compacted periodically,
  and each snapshot is assembled from the live rows with numpy sorts
  instead of a per-slot Python rebuild.  Snapshots are byte-equal to
  :meth:`SlotArrays.from_slots` over the same slots (property-tested),
  so the vectorized kernel cannot tell the difference.
* :data:`STRUCTURED_DTYPE` / :meth:`SlotArrays.structured` — the
  flattened one-record-per-slot view (``node_id``, ``start``, ``end``,
  ``cost`` — the node's price per unit time — and ``performance``),
  used as the interchange format of shared-memory snapshots and by
  tests that cross-check columns against the object pool.
* :meth:`SlotArrays.to_shared` / :meth:`SlotArrays.from_shared` — one
  writer publishes a snapshot into a ``multiprocessing.shared_memory``
  block; N readers attach zero-copy.  Object state that numpy cannot
  carry (OS names) travels in a small pickled header inside the same
  block.

The arrays are a *snapshot*: building one from a :class:`SlotPool`
captures the pool at that instant; the pool serves one snapshot object
per mutation generation (see :meth:`repro.model.SlotPool.as_arrays`),
assembling fresh generations from the incremental store rather than
re-walking objects.
Readers that need objects back — e.g. worker processes returning
:class:`~repro.model.Window` results — rebuild value-equal ``Slot`` /
``CpuNode`` instances from the columns via :meth:`slot_objects`.
"""

from __future__ import annotations

import pickle
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.model.job import ResourceRequest
from repro.model.resource import CpuNode, NodeSpec
from repro.model.slot import Slot

#: The flat per-slot record layout named in the array API.  ``cost`` is
#: the node's price per occupied time unit (the request-independent cost
#: rate); per-request leg costs are ``cost * task_runtime`` and are
#: derived per scan, never stored.
STRUCTURED_DTYPE = np.dtype(
    [
        ("node_id", np.int64),
        ("start", np.float64),
        ("end", np.float64),
        ("cost", np.float64),
        ("performance", np.float64),
    ]
)

#: Numeric node-table columns shipped through shared memory, in order.
_NODE_COLUMNS = ("node_id", "performance", "price", "clock", "ram", "disk", "power")


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
    #: Original ``Slot`` objects when built locally; rebuilt lazily from
    #: the columns after a shared-memory attach.
    _slots: Optional[list[Slot]] = None
    _nodes: Optional[list[CpuNode]] = field(default=None, repr=False)

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
            _nodes=nodes,
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

    def structured(self) -> np.ndarray:
        """The flat :data:`STRUCTURED_DTYPE` record array (one per slot)."""
        records = np.empty(self.slot_count, dtype=STRUCTURED_DTYPE)
        records["node_id"] = self.node_id[self.node_row]
        records["start"] = self.start
        records["end"] = self.end
        records["cost"] = self.price[self.node_row]
        records["performance"] = self.performance[self.node_row]
        return records

    def nodes(self) -> list[CpuNode]:
        """The distinct nodes, rebuilt from the table when attached remotely."""
        if self._nodes is None:
            self._nodes = [
                CpuNode(
                    node_id=int(self.node_id[row]),
                    performance=float(self.performance[row]),
                    price_per_unit=float(self.price[row]),
                    spec=NodeSpec(
                        clock_speed=float(self.clock[row]),
                        ram=int(self.ram[row]),
                        disk=int(self.disk[row]),
                        os=self.os_names[row],
                    ),
                )
                for row in range(self.node_count)
            ]
        return self._nodes

    def slot_objects(self) -> list[Slot]:
        """The slots as objects (value-equal to the snapshot's source)."""
        if self._slots is None:
            nodes = self.nodes()
            rows = self.node_row.tolist()
            starts = self.start.tolist()
            ends = self.end.tolist()
            self._slots = [
                Slot(nodes[rows[i]], starts[i], ends[i])
                for i in range(self.slot_count)
            ]
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

    # ------------------------------------------------------------------
    # Shared-memory transport
    # ------------------------------------------------------------------
    def to_shared(self, shared_memory_cls=None) -> "SharedSlotArrays":
        """Publish this snapshot into a new shared-memory block.

        The caller owns the returned handle: ``close()`` detaches,
        ``unlink()`` frees the block (writer-side, once all readers are
        done with the cycle).
        """
        if shared_memory_cls is None:
            from multiprocessing import shared_memory as _shm

            shared_memory_cls = _shm.SharedMemory
        header = pickle.dumps(
            {
                "slot_count": self.slot_count,
                "node_count": self.node_count,
                "os_names": self.os_names,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        slot_block = 3 * 8 * self.slot_count
        node_block = len(_NODE_COLUMNS) * 8 * self.node_count
        header_span = 8 + len(header)
        padding = (-header_span) % 8
        total = max(1, header_span + padding + slot_block + node_block)
        memory = shared_memory_cls(create=True, size=total)
        buffer = memory.buf
        buffer[:8] = len(header).to_bytes(8, "little")
        buffer[8 : 8 + len(header)] = header
        offset = header_span + padding
        for column in (self.start, self.end, self.node_row.astype(np.float64)):
            view = np.ndarray(self.slot_count, dtype=np.float64, buffer=buffer, offset=offset)
            view[:] = column
            offset += 8 * self.slot_count
        for name in _NODE_COLUMNS:
            column = getattr(self, name).astype(np.float64)
            view = np.ndarray(self.node_count, dtype=np.float64, buffer=buffer, offset=offset)
            view[:] = column
            offset += 8 * self.node_count
        return SharedSlotArrays(memory=memory, owner=True)

    @classmethod
    def _from_buffer(cls, buffer) -> "SlotArrays":
        """Rebuild a snapshot from a shared block's buffer (copying out)."""
        header_length = int.from_bytes(bytes(buffer[:8]), "little")
        header = pickle.loads(bytes(buffer[8 : 8 + header_length]))
        slot_count = header["slot_count"]
        node_count = header["node_count"]
        offset = 8 + header_length
        offset += (-offset) % 8

        def take(count: int, dtype) -> np.ndarray:
            nonlocal offset
            view = np.ndarray(count, dtype=np.float64, buffer=buffer, offset=offset)
            offset += 8 * count
            # Copy out so the arrays outlive the mapping; readers that
            # want true zero-copy use ``attach_view`` semantics via the
            # snapshot handle instead.
            return np.array(view, dtype=dtype)

        start = take(slot_count, np.float64)
        end = take(slot_count, np.float64)
        node_row = take(slot_count, np.int64)
        columns = {name: None for name in _NODE_COLUMNS}
        for name in _NODE_COLUMNS:
            dtype = np.int64 if name in ("node_id", "ram", "disk") else np.float64
            columns[name] = take(node_count, dtype)
        return cls(
            start=start,
            end=end,
            node_row=node_row,
            node_id=columns["node_id"],
            performance=columns["performance"],
            price=columns["price"],
            clock=columns["clock"],
            ram=columns["ram"],
            disk=columns["disk"],
            power=columns["power"],
            os_names=header["os_names"],
        )


@dataclass
class SharedSlotArrays:
    """Handle on a shared-memory slot snapshot (writer or reader side)."""

    memory: object
    owner: bool = False

    @property
    def name(self) -> str:
        """The OS-level block name readers attach with."""
        return self.memory.name

    @classmethod
    def attach(cls, name: str, shared_memory_cls=None) -> "SharedSlotArrays":
        """Open an existing snapshot block read-only (reader side)."""
        if shared_memory_cls is None:
            from multiprocessing import shared_memory as _shm

            shared_memory_cls = _shm.SharedMemory
        return cls(memory=shared_memory_cls(name=name), owner=False)

    def arrays(self) -> SlotArrays:
        """Decode the snapshot into :class:`SlotArrays`."""
        return SlotArrays._from_buffer(self.memory.buf)

    def close(self) -> None:
        """Detach this process's mapping."""
        self.memory.close()

    def unlink(self) -> None:
        """Free the block (writer side, after the cycle completes)."""
        if self.owner:
            self.memory.unlink()

    def __enter__(self) -> "SharedSlotArrays":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
        self.unlink()


class SlotColumnStore:
    """Incrementally maintained columnar state of a mutating slot pool.

    The pool's old snapshot discipline rebuilt :class:`SlotArrays` from
    scratch — a per-slot Python loop — after *any* mutation.  A
    long-running broker mutates the pool every cycle (commits, releases,
    trims, horizon extensions), so the rebuild made per-cycle snapshot
    cost O(pool) in interpreted code regardless of how small the delta
    was.  This store keeps the columns alive across mutations:

    * ``add`` appends one storage row — O(1) amortized.
    * ``discard`` tombstones the slot's row — O(1) (the row is found
      through a sort-key lookup table, not a scan).
    * dead rows are **compacted** away once they outnumber half the
      storage (and at least ``compact_min``), so storage stays
      proportional to the live pool — the flat-memory requirement of
      soak serving.
    * the start-time sort order is maintained *incrementally*: a
      permutation array (``_order``) lists the live storage rows in
      ``Slot.sort_key`` order, updated per mutation with one bisect on
      a parallel key list and one ``memmove``-style shift.  ``snapshot``
      is therefore sort-free — three fancy-index gathers plus one
      ``searchsorted`` for the node rows.  The result is byte-equal to
      ``SlotArrays.from_slots`` over the pool's ordered slots: equal
      sort keys can only order value-identical rows differently, which
      no column can observe.

    The *node table* is maintained as a reference-counted registry in
    ascending ``node_id`` order: a node enters when its first slot
    arrives and leaves when its last slot is tombstoned, so fully
    trimmed nodes never linger in snapshots.  ``generation`` increments
    on every mutation; callers cache snapshots per generation.
    """

    __slots__ = (
        "_start",
        "_end",
        "_nid",
        "_alive",
        "_size",
        "_dead",
        "_order",
        "_keys",
        "_lookup",
        "_node_objs",
        "_node_refs",
        "_sorted_ids",
        "_table",
        "generation",
        "compact_min",
    )

    #: Storage growth factor headroom for the append path.
    _INITIAL_CAPACITY = 32

    def __init__(self, compact_min: int = 64):
        self._start = np.empty(self._INITIAL_CAPACITY, dtype=np.float64)
        self._end = np.empty(self._INITIAL_CAPACITY, dtype=np.float64)
        self._nid = np.empty(self._INITIAL_CAPACITY, dtype=np.int64)
        self._alive = np.zeros(self._INITIAL_CAPACITY, dtype=bool)
        self._size = 0
        self._dead = 0
        #: Live storage rows in ``Slot.sort_key`` order (the snapshot
        #: permutation, maintained incrementally); ``_keys`` is the
        #: parallel sorted list of sort keys used to bisect positions.
        self._order = np.empty(self._INITIAL_CAPACITY, dtype=np.int64)
        self._keys: list[tuple[float, float, int]] = []
        #: sort_key -> storage rows holding that key (a list only to
        #: tolerate value-identical duplicates; popping either is
        #: correct because their column bytes are indistinguishable).
        self._lookup: dict[tuple[float, float, int], list[int]] = {}
        self._node_objs: dict[int, CpuNode] = {}
        self._node_refs: dict[int, int] = {}
        self._sorted_ids: list[int] = []
        self._table: Optional[tuple] = None
        self.generation = 0
        self.compact_min = compact_min

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        """Number of live (non-tombstoned) rows."""
        return self._size - self._dead

    @property
    def dead_count(self) -> int:
        """Number of tombstoned rows awaiting compaction."""
        return self._dead

    @property
    def storage_rows(self) -> int:
        """Rows currently occupied in storage (live + dead)."""
        return self._size

    @property
    def node_count(self) -> int:
        """Distinct nodes with at least one live slot."""
        return len(self._sorted_ids)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _ensure_capacity(self) -> None:
        if self._size < self._start.shape[0]:
            return
        capacity = max(self._INITIAL_CAPACITY, 2 * self._start.shape[0])
        for name in ("_start", "_end", "_nid", "_alive"):
            old = getattr(self, name)
            grown = np.zeros(capacity, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def add(self, slot: Slot) -> None:
        """Append one slot's storage row and splice it into the order.

        The column append is O(1) amortized; keeping the permutation
        sorted costs one bisect plus a contiguous shift (a single
        ``memmove``, not a numpy sort) — microseconds at soak-scale
        pools, repaid every snapshot.
        """
        self._ensure_capacity()
        row = self._size
        self._start[row] = slot.start
        self._end[row] = slot.end
        node = slot.node
        self._nid[row] = node.node_id
        self._alive[row] = True
        self._size = row + 1
        key = slot.sort_key()
        live = len(self._keys)
        if live >= self._order.shape[0]:
            grown = np.empty(max(self._INITIAL_CAPACITY, 2 * live), dtype=np.int64)
            grown[:live] = self._order[:live]
            self._order = grown
        position = bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._order[position + 1 : live + 1] = self._order[position:live]
        self._order[position] = row
        if self._register(key, row, node):
            insort(self._sorted_ids, node.node_id)
            self._table = None
        self.generation += 1

    def _register(self, key, row: int, node: CpuNode) -> bool:
        """Record ``row`` under ``key`` and count one more slot of
        ``node``; true when the node is new to the store (the first
        object registered under a ``node_id`` is the one kept)."""
        self._lookup.setdefault(key, []).append(row)
        node_id = node.node_id
        refs = self._node_refs.get(node_id)
        if refs is None:
            self._node_refs[node_id] = 1
            self._node_objs[node_id] = node
            return True
        self._node_refs[node_id] = refs + 1
        return False

    def load_sorted(
        self, entries: Sequence[tuple[tuple[float, float, int], Slot]]
    ) -> None:
        """Fill an empty store from ``(sort key, slot)`` pairs in key order.

        The bulk twin of one :meth:`add` per slot: the rows are written
        in order, so the permutation is the identity and no per-slot
        bisect or shift is paid.  Snapshots equal those of a store the
        same slots were added to one by one.
        """
        if self._size:
            raise ValueError("load_sorted needs an empty store")
        count = len(entries)
        keys = [key for key, _ in entries]
        if count > min(self._start.shape[0], self._order.shape[0]):
            self._start = np.empty(count, dtype=np.float64)
            self._end = np.empty(count, dtype=np.float64)
            self._nid = np.empty(count, dtype=np.int64)
            self._alive = np.zeros(count, dtype=bool)
            self._order = np.empty(count, dtype=np.int64)
        self._start[:count] = [key[0] for key in keys]
        self._end[:count] = [key[1] for key in keys]
        self._nid[:count] = [key[2] for key in keys]
        self._alive[:count] = True
        self._order[:count] = np.arange(count, dtype=np.int64)
        self._size = count
        self._keys = keys
        for row, (key, slot) in enumerate(entries):
            self._register(key, row, slot.node)
        self._sorted_ids = sorted(self._node_refs)
        self._table = None
        self.generation += count

    def discard(self, slot: Slot) -> None:
        """Tombstone one slot's row and splice it out of the order."""
        key = slot.sort_key()
        rows = self._lookup[key]
        row = rows.pop()
        if not rows:
            del self._lookup[key]
        # Equal keys sit contiguously in the permutation; scan the short
        # duplicate run for the exact row the lookup table released.
        position = bisect_left(self._keys, key)
        while self._order[position] != row:  # pragma: no branch - present
            position += 1
        live = len(self._keys)
        del self._keys[position]
        self._order[position : live - 1] = self._order[position + 1 : live]
        self._alive[row] = False
        self._dead += 1
        node_id = slot.node.node_id
        refs = self._node_refs[node_id] - 1
        if refs == 0:
            # The node's last slot is gone: compact it out of the table
            # immediately so node_count/snapshots track live nodes only.
            del self._node_refs[node_id]
            del self._node_objs[node_id]
            self._sorted_ids.remove(node_id)
            self._table = None
        else:
            self._node_refs[node_id] = refs
        self.generation += 1
        if self._dead >= self.compact_min and 2 * self._dead >= self._size:
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned rows, renumbering the lookup and order tables."""
        if self._dead == 0:
            return
        live = np.flatnonzero(self._alive[: self._size])
        count = int(live.size)
        new_row = np.empty(self._size, dtype=np.int64)
        new_row[live] = np.arange(count, dtype=np.int64)
        self._start[:count] = self._start[: self._size][live]
        self._end[:count] = self._end[: self._size][live]
        self._nid[:count] = self._nid[: self._size][live]
        self._alive[:count] = True
        self._alive[count : self._size] = False
        self._size = count
        self._dead = 0
        self._order[:count] = new_row[self._order[:count]]
        renumber = new_row.tolist()
        for rows in self._lookup.values():
            rows[:] = [renumber[row] for row in rows]

    # ------------------------------------------------------------------
    # Snapshot assembly
    # ------------------------------------------------------------------
    def _table_arrays(self) -> tuple:
        """The node-table columns (cached until node arrival/departure)."""
        if self._table is None:
            nodes = [self._node_objs[node_id] for node_id in self._sorted_ids]
            self._table = (
                np.array(self._sorted_ids, dtype=np.int64),
                np.array([n.performance for n in nodes], dtype=np.float64),
                np.array([n.price_per_unit for n in nodes], dtype=np.float64),
                np.array([n.spec.clock_speed for n in nodes], dtype=np.float64),
                np.array([n.spec.ram for n in nodes], dtype=np.int64),
                np.array([n.spec.disk for n in nodes], dtype=np.int64),
                np.array([n.power() for n in nodes], dtype=np.float64),
                [n.spec.os for n in nodes],
                nodes,
            )
        return self._table

    def snapshot(self, ordered_slots: Optional[list[Slot]] = None) -> SlotArrays:
        """Assemble the live rows into a fresh :class:`SlotArrays`.

        ``ordered_slots`` optionally supplies the pool's object list so
        the snapshot's ``slot_objects()`` returns the pool's own
        instances (matching :meth:`SlotArrays.from_slots`); without it
        objects are rebuilt lazily from the columns on first use.
        """
        # The permutation is maintained per mutation, so assembly is
        # three gathers — no sort, no tombstone filtering (dead rows are
        # simply absent from the order).
        order = self._order[: len(self._keys)]
        start = self._start[order]
        end = self._end[order]
        nid = self._nid[order]
        (
            node_id,
            performance,
            price,
            clock,
            ram,
            disk,
            power,
            os_names,
            nodes,
        ) = self._table_arrays()
        node_row = np.searchsorted(node_id, nid).astype(np.int64, copy=False)
        return SlotArrays(
            start=start,
            end=end,
            node_row=node_row,
            node_id=node_id,
            performance=performance,
            price=price,
            clock=clock,
            ram=ram,
            disk=disk,
            power=power,
            os_names=list(os_names),
            _slots=ordered_slots,
            _nodes=list(nodes),
        )

    def copy(self) -> "SlotColumnStore":
        """An independent twin (numpy buffers and registries copied)."""
        twin = SlotColumnStore.__new__(SlotColumnStore)
        twin._start = self._start[: self._size].copy()
        twin._end = self._end[: self._size].copy()
        twin._nid = self._nid[: self._size].copy()
        twin._alive = self._alive[: self._size].copy()
        twin._size = self._size
        twin._dead = self._dead
        twin._order = self._order[: len(self._keys)].copy()
        twin._keys = list(self._keys)
        twin._lookup = {key: list(rows) for key, rows in self._lookup.items()}
        twin._node_objs = dict(self._node_objs)
        twin._node_refs = dict(self._node_refs)
        twin._sorted_ids = list(self._sorted_ids)
        # The table cache is immutable once built (rebuilt, never written
        # in place), so the twin may share it.
        twin._table = self._table
        twin.generation = self.generation
        twin.compact_min = self.compact_min
        return twin
