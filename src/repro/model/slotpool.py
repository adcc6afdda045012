"""The ordered slot list ("slot pool") the selection algorithms scan.

The AEP family requires the list of all available slots *ordered by
non-decreasing start time* — that ordering is what makes a single linear
scan sufficient.  The pool maintains that order, and implements the
"cutting" operation of the CSA scheme: once a window is allocated, the
reserved spans are removed from the affected slots and the usable
remainders are re-inserted, so the next search sees only genuinely free
time.

Past free time is dropped lazily: a virtual-clock step records a
*floor* (:meth:`SlotPool.advance_floor`, O(1)), and the pool trims to
it (:meth:`SlotPool.trim_before`) the first time it is mutated or hands
out slots or a snapshot.  The readers that run on every arrival —
``len()`` and admission (:meth:`SlotPool.arrays_before_floor`) — apply
the floor on read (:func:`floor_survivors`) and leave it pending.

The pool also keeps *negative certificates*: keys of searches a kernel
proved empty on it (:meth:`SlotPool.certify`, read by
:func:`repro.core.vectorized.vectorized_alternatives`).  Such a proof
survives every mutation that only takes free time away and dies with
every one that adds some; :class:`SlotPool` says which is which.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON, Slot, fits_from, last_start
from repro.model.slotarrays import SlotArrays, SlotColumnStore
from repro.model.window import Window, left_sum

#: Tolerance for coalescing two same-node slots across a gap: spans whose
#: endpoints are within one :data:`TIME_EPSILON` are considered touching.
#: This is the *same* single-epsilon rule the usable-length admission
#: check applies — one epsilon of slack on the time axis, never two.
COALESCE_GAP = TIME_EPSILON


def floor_survivors(
    start: np.ndarray, end: np.ndarray, floor: float, min_usable_length: float
) -> tuple[np.ndarray, np.ndarray]:
    """What ``trim_before(floor)`` makes of rows, as columns.

    ``start`` / ``end`` are rows the trim inspects — rows starting
    before ``floor + TIME_EPSILON``.  Returns the mask of rows it keeps
    and their starts afterwards: a row ending by ``floor +
    TIME_EPSILON`` is dropped, one starting at or after ``floor -
    TIME_EPSILON`` is kept as it is, and any other is cut to ``[floor,
    end)`` and kept only if that tail is longer than ``TIME_EPSILON``
    and at least ``min_usable_length``.  The comparisons are the trim's
    own, float for float; :meth:`SlotPool.trim_before`'s object loop is
    the twin this rule is tested against.
    """
    cut = start < floor - TIME_EPSILON
    tail = end - floor
    kept = end > floor + TIME_EPSILON
    kept &= ~cut | ((tail > TIME_EPSILON) & (tail >= min_usable_length))
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


def _find_entry(
    entries: list[tuple[tuple[float, float, int], Slot]],
    entry: tuple[tuple[float, float, int], Slot],
) -> Optional[int]:
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


def _has_neighbours(bucket: list[tuple[tuple[float, float, int], Slot]]) -> bool:
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

    Parameters
    ----------
    min_usable_length:
        Remainders shorter than this are dropped when a window is cut out.
        The paper's environment has local jobs of length >= 10, so by
        default any positive remainder is kept; raising the threshold is the
        "cutting policy" ablation discussed in DESIGN.md.

    Every mutation is a *removal* or a *gain* of free time, and the
    certificate store (:meth:`certify`) follows that split.

    * Removals keep the certificates.  :meth:`remove`, the trims
      (:meth:`trim_before`, and the floors :meth:`advance_floor`
      records), and cutting (:meth:`cut_window`, :meth:`commit_window`)
      only drop slots or leave a slot's sub-span on the same node: a
      trimmed slot keeps its end and starts later, and a cut remainder
      is part of its host.  A search proven empty stays empty on any
      such sub-pool (the proof is in :mod:`repro.core.vectorized`).
    * Gains empty the store.  :meth:`add`, :meth:`release` and a cut
      remainder that *coalesces* with a neighbour all add free time,
      and a bulk load (:meth:`from_slots`) starts a pool with an empty
      store.  A remainder can only coalesce when
      the pool holds touching slots of one node, as a pool built with
      ``coalesce=False`` can (``partition_pool`` builds shards so).
    * :meth:`copy` shares the store with the twin until either side
      mutates: a removal then gives the mutated pool its own copy of
      the store, and a gain an empty one.  Pools sharing one store
      therefore always hold the same slots, and a certificate recorded
      through one is true of all of them.
    """

    min_usable_length: float = TIME_EPSILON
    _slots: list[tuple[tuple[float, float, int], Slot]] = field(default_factory=list)
    #: Per-node index: node_id -> the node's entries, same tuples as
    #: ``_slots`` and kept in the same (total) order.  Node-scoped
    #: operations — coalescing, host lookup, overlap checks — walk one
    #: short bucket instead of the whole pool, and ``node_count`` is O(1)
    #: (empty buckets are deleted eagerly).
    _by_node: dict[int, list[tuple[tuple[float, float, int], Slot]]] = field(
        default_factory=dict
    )
    #: The columnar mirror of ``_slots``: every mutation records the
    #: entries it inserted or deleted, and the columns catch up on the
    #: next read, so :meth:`as_arrays` never pays a per-slot Python
    #: rebuild (see :class:`~repro.model.slotarrays.SlotColumnStore`).
    _store: SlotColumnStore = field(
        default_factory=SlotColumnStore, repr=False, compare=False
    )
    #: The snapshot served at ``_cache_generation`` (reused until the
    #: next mutation, so unchanged pools keep their scan-plan caches).
    _cache: Optional[SlotArrays] = field(default=None, repr=False, compare=False)
    _cache_generation: int = field(default=-1, repr=False, compare=False)
    #: The floor recorded by :meth:`advance_floor` and not yet applied.
    _floor: Optional[float] = field(default=None, repr=False, compare=False)
    #: ``(time, generation)`` of the last :meth:`trim_before`: while the
    #: generation holds, a floor at or below ``time`` changes nothing.
    _trimmed: tuple[float, int] = field(
        default=(float("-inf"), -1), repr=False, compare=False
    )
    #: The pending floor over the snapshot it was evaluated on.
    _pending: Optional[tuple[SlotArrays, PendingFloor]] = field(
        default=None, repr=False, compare=False
    )
    #: Negative certificates: search key -> ``True``, oldest first
    #: (:meth:`certify`), and whether a :meth:`copy` may share the dict.
    _certificates: dict = field(default_factory=dict, repr=False, compare=False)
    _certificates_shared: bool = field(default=False, repr=False, compare=False)

    @classmethod
    def from_slots(
        cls,
        slots: Iterable[Slot],
        min_usable_length: float = TIME_EPSILON,
        coalesce: bool = True,
    ) -> "SlotPool":
        """Build a pool from an iterable of slots, in bulk where possible.

        The result always equals ``add(slot, coalesce)`` one slot at a
        time.  Coalescing can only change anything when two kept slots
        of one node overlap or lie within :data:`COALESCE_GAP`, and the
        start-ordered per-node buckets show whether any do (a slot
        starting within the gap of the furthest end before it).  When
        none do — every generated environment: a timeline's free gaps
        are separated by busy chunks — or with ``coalesce=False``, the
        pool is filled in bulk: one sort, then the ordered list, the
        buckets and the column store in order, instead of a bucket walk,
        two bisects and a column-store shift per slot.  Otherwise the
        slots are added one by one.
        """
        pool = cls(min_usable_length=min_usable_length)
        slots = list(slots)
        entries = sorted(
            (
                (slot.sort_key(), slot)
                for slot in slots
                if not slot.length < min_usable_length
            ),
            key=itemgetter(0),
        )
        by_node: dict[int, list[tuple[tuple[float, float, int], Slot]]] = {}
        for entry in entries:
            by_node.setdefault(entry[1].node.node_id, []).append(entry)
        if coalesce and any(map(_has_neighbours, by_node.values())):
            for slot in slots:
                pool.add(slot)
            return pool
        pool._slots = entries
        pool._by_node = by_node
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
        self._floor = self._pending = None
        return self.trim_before(floor)

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """The slot count once the pending floor is applied.

        Counted without applying it: the rows ``trim_before`` would
        drop are subtracted (see :meth:`arrays_before_floor`).
        """
        if self._floor is None:
            return len(self._slots)
        _, pending = self.arrays_before_floor()
        assert pending is not None
        return len(self._slots) - pending.cutoff + int(np.count_nonzero(pending.kept))

    def __iter__(self) -> Iterator[Slot]:
        """Iterate slots by non-decreasing start time."""
        self.apply_floor()
        return (slot for _, slot in self._slots)

    def ordered(self) -> list[Slot]:
        """The slots as a list, ordered by non-decreasing start time."""
        self.apply_floor()
        return [slot for _, slot in self._slots]

    def __contains__(self, slot: Slot) -> bool:
        self.apply_floor()
        bucket = self._by_node.get(slot.node.node_id)
        if not bucket:
            return False
        return _find_entry(bucket, (slot.sort_key(), slot)) is not None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, slot: Slot, coalesce: bool = True) -> None:
        """Insert a slot, keeping the start-time order.

        By default the new slot is *coalesced* with touching slots of the
        same node already in the pool (identical node, hence identical
        price and performance; gap within :data:`COALESCE_GAP`), so
        repeated cut/release cycles do not fragment the pool into ever
        shorter spans.  Pass ``coalesce=False`` to insert verbatim.

        Slots shorter than ``min_usable_length`` are dropped — the same
        strict threshold :meth:`repro.model.Slot.split` applies to cut
        remainders.
        """
        self.apply_floor()
        if slot.length < self.min_usable_length:
            return
        if self._certificates or self._certificates_shared:
            self._gained()
        if coalesce:
            slot = self._coalesce(slot)
        entry = (slot.sort_key(), slot)
        position = bisect_right(self._slots, entry)
        self._slots.insert(position, entry)
        insort(self._by_node.setdefault(slot.node.node_id, []), entry)
        self._store.insert(entry)

    def _coalesce(self, slot: Slot) -> Slot:
        """Absorb same-node neighbours touching ``slot`` and return the union.

        In a per-node-disjoint pool at most one slot can end at ``slot.start``
        and at most one can start at ``slot.end``; both are removed from the
        pool and the merged span is returned for insertion.  Only the
        node's own index bucket is inspected.
        """
        bucket = self._by_node.get(slot.node.node_id)
        if not bucket:
            return slot
        left: Optional[Slot] = None
        right: Optional[Slot] = None
        for _, other in bucket:
            if abs(other.end - slot.start) <= COALESCE_GAP:
                left = other
            elif abs(slot.end - other.start) <= COALESCE_GAP:
                right = other
        if left is None and right is None:
            return slot
        start = slot.start if left is None else left.start
        end = slot.end if right is None else right.end
        for neighbour in (left, right):
            if neighbour is not None:
                self.remove(neighbour)
        return Slot(slot.node, start, end)

    def remove(self, slot: Slot) -> None:
        """Remove one slot; raises :class:`AllocationError` if absent."""
        self.apply_floor()
        entry = (slot.sort_key(), slot)
        index = _find_entry(self._slots, entry)
        if index is None:
            raise AllocationError(f"slot not in pool: {slot!r}")
        entry = self._slots.pop(index)
        self._bucket_discard(entry)
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

    def _bucket_discard(self, entry: tuple[tuple[float, float, int], Slot]) -> None:
        """Drop ``entry`` (known present) from its node's index bucket."""
        node_id = entry[1].node.node_id
        bucket = self._by_node[node_id]
        index = _find_entry(bucket, entry)
        if index is not None:  # pragma: no branch - present by invariant
            del bucket[index]
        if not bucket:
            del self._by_node[node_id]

    def cut_window(self, window: Window, mode: str = "split") -> None:
        """Remove a window's reservations from the pool.

        This is the operation the CSA scheme performs between consecutive
        AMP runs so that the alternatives it accumulates are disjoint (the
        "cutting" of reference [17]).  Two policies:

        * ``mode="split"`` — carve the span ``[window.start, window.start +
          required_time)`` out of each used slot and re-insert remainders
          of at least ``min_usable_length``.  Maximizes slot reuse; this is
          what a final allocation does.
        * ``mode="consume"`` — drop each used slot entirely.  This is the
          coarser policy whose alternative counts match the paper's CSA
          statistics (~57 alternatives from ~470 slots in the base
          environment); see DESIGN.md's cutting-policy ablation.
        """
        self.apply_floor()
        for ws in window.slots:
            if not ws.fits_from(window.start):
                raise AllocationError(
                    f"window leg on node {ws.slot.node.node_id} does not fit its slot"
                )
            self._carve(ws.slot, window.start, ws.required_time, mode)

    def _carve(self, host: Slot, span_start: float, required_time: float, mode: str) -> None:
        """Take ``host`` out of the pool and, in ``"split"`` mode, put
        back what the span ``[span_start, span_start + required_time)``
        leaves of it."""
        if mode not in ("split", "consume"):
            raise ValueError(f"unknown cut mode {mode!r}")
        self.remove(host)
        if mode == "split":
            remainders = host.split(span_start, required_time, self.min_usable_length)
            kept = self._certificates
            size = len(self._slots)
            for remainder in remainders:
                self.add(remainder)
            # ``add`` counts as a gain, but a remainder that merged with
            # nothing is a sub-span of its host: the cut removed time.
            if len(self._slots) == size + len(remainders):
                self._certificates = kept

    def commit_window(self, window: Window, mode: str = "split") -> None:
        """Cut a window out of the pool by *span containment*.

        :meth:`cut_window` removes the exact slot objects a window
        references, which is right when the window was just searched on
        this very pool state.  A broker-service cycle instead commits
        several windows chosen on a common snapshot: an earlier commit may
        already have replaced a leg's slot with its remainders, so each
        leg is located by finding the current pool slot on its node that
        hosts its reserved span: one starting at or before the window
        start that the leg :func:`~repro.model.slot.fits_from` (the
        search's own test, so a leg accepted on the snapshot finds its
        unchanged slot); phase two guarantees the spans themselves are
        disjoint.  Raises :class:`AllocationError` when no such slot
        exists — e.g. the span was lost to a sub-threshold remainder drop
        on a pool with a raised ``min_usable_length``; the pool is left
        unchanged in that case.
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
            self._carve(host, start, required_time, mode)

    def release(self, window: Window, floor: Optional[float] = None) -> None:
        """Return a committed window's reservations to the pool.

        The inverse of :meth:`cut_window`: each leg's reserved span
        ``[window.start, window.start + required_time)`` is re-inserted and
        coalesced with adjacent same-node slots, so a cut followed by a
        release leaves the pool as it started (up to sub-threshold
        remainders dropped by the cut).  The slot lifecycle of the broker
        service relies on this to retire finished jobs without leaking or
        fragmenting capacity.

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

        Raises :class:`AllocationError` when any released span overlaps
        free time already in the pool (the signature of a double release);
        the pool is left unchanged in that case.
        """
        self.apply_floor()
        start = window.start
        # ``trim_before(floor)`` truncates what starts before this bound.
        bound = float("-inf") if floor is None else floor - TIME_EPSILON
        by_node = self._by_node
        inserts: list[Slot] = []
        for ws in window.slots:
            node = ws.slot.node
            span_end = start + ws.required_time
            reach = span_end - TIME_EPSILON
            for (slot_start, slot_end, _), _slot in by_node.get(node.node_id, ()):
                if slot_start >= reach:
                    break  # start-ordered: nothing later overlaps either
                if start < slot_end - TIME_EPSILON:
                    raise AllocationError(
                        f"released span [{start:g}, {span_end:g}) on node "
                        f"{node.node_id} overlaps free slot "
                        f"[{slot_start:g}, {slot_end:g}) — double release?"
                    )
            # Written with the sums the coalescing and the trim compare
            # floats by, so the two-epsilon rule holds to the last bit.
            if not span_end + TIME_EPSILON < bound:
                inserts.append(Slot(node, start, span_end))
        for slot in inserts:
            self.add(slot)

    def trim_before(self, time: float) -> int:
        """Drop free time earlier than ``time`` (virtual-clock advance).

        Slots ending at or before ``time`` are removed; slots straddling it
        are truncated to ``[time, end)`` (dropped entirely when the usable
        tail falls below ``min_usable_length``).  Returns the number of
        slots removed or truncated.  This is the one code that trims:
        the broker service only records each clock step's floor
        (:meth:`advance_floor`), and the pool calls this with it when it
        is next mutated or read — in a steady stream once per cycle,
        not once per arrival — so searches only ever see future time.
        A pending floor is applied first.

        Only the prefix of slots starting at or before ``time +
        TIME_EPSILON`` is inspected: every later slot is kept untouched
        (its end exceeds its start, hence the cutoff too).  The per-node buckets share the
        pool's total order, so a node's entries inside that prefix are
        the first entries of its bucket and are rewritten by position —
        no search, no per-slot delete and re-insert.
        """
        self.apply_floor()
        changed = self._trim(time)
        self._trimmed = (time, self._store.generation)
        return changed

    def _trim(self, time: float) -> int:
        """The body of :meth:`trim_before`, on a pool with no floor pending."""
        bound = time + TIME_EPSILON
        # Every slot starting at or before ``bound``: where one ulp of
        # ``time`` exceeds twice the tolerance, ``bound`` is ``time``
        # itself, and a slot starting there must sort among those cut
        # to start there.
        probe = ((bound, math.inf),)
        cutoff = bisect_left(self._slots, probe)
        if cutoff == 0:
            return 0
        prefix = self._slots[:cutoff]
        truncate_before = time - TIME_EPSILON
        min_tail = self.min_usable_length
        by_node = self._by_node
        changed = 0
        removed: list[Slot] = []
        rebuilt: list[tuple[tuple[float, float, int], Slot]] = []
        # node id -> what each prefix entry of a node owning several of
        # them became (``None``: removed), in bucket order.
        crowded: dict[int, list] = {}
        for entry in prefix:
            (start, end, node_id), slot = entry
            survivor = None
            if end > bound:
                if start >= truncate_before:
                    survivor = entry  # starts at ``time``: kept as it is
                else:
                    tail = end - time
                    if tail > TIME_EPSILON and tail >= min_tail:
                        survivor = ((time, end, node_id), Slot(slot.node, time, end))
            if survivor is not entry:
                changed += 1
            if survivor is None:
                removed.append(slot)
            else:
                rebuilt.append(survivor)
            bucket = by_node[node_id]
            if len(bucket) > 1 and bucket[1][0][0] <= bound:
                crowded.setdefault(node_id, []).append(survivor)
            elif survivor is not None:
                bucket[0] = survivor
            elif len(bucket) > 1:
                del bucket[0]
            else:
                del by_node[node_id]
        if not changed:
            return 0
        self._removed()
        for node_id, survivors in crowded.items():
            # Two overlapping slots of one node (a ``coalesce=False``
            # pool) can swap order once both start at ``time``.
            bucket = by_node[node_id]
            bucket[: len(survivors)] = sorted(
                (entry for entry in survivors if entry is not None),
                key=itemgetter(0),
            )
            if not bucket:
                del by_node[node_id]
        rebuilt.sort(key=itemgetter(0))
        self._slots[:cutoff] = rebuilt
        self._store.replace_prefix(probe, prefix, rebuilt, removed)
        return changed

    def copy(self) -> "SlotPool":
        """A shallow copy (slots are immutable, so this is fully safe)."""
        # A fresh snapshot, shared with the twin until either side
        # mutates (snapshots are never written in place; each pool
        # tracks its own generation): scan plans built on one serve the
        # other.
        arrays = self.as_arrays()
        twin = SlotPool(min_usable_length=self.min_usable_length)
        twin._slots = list(self._slots)
        twin._by_node = {
            node_id: list(bucket) for node_id, bucket in self._by_node.items()
        }
        twin._store = self._store.copy(self._slots)
        twin._cache = arrays
        twin._cache_generation = self._cache_generation
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
        sort.  The snapshot keeps a copy of the entry list; its
        ``slot_objects()`` list is built only if a scan asks for it.
        """
        self.apply_floor()
        return self._snapshot()

    def arrays_before_floor(self) -> tuple[SlotArrays, Optional[PendingFloor]]:
        """The snapshot of the slots *before* the pending floor, and
        what that floor makes of its rows (``None`` when none is
        pending; :func:`floor_survivors`).

        Leaves the floor pending, for readers that apply it on read:
        ``len()`` and admission do, on every arrival.  The rows are
        evaluated once per floor and snapshot.
        """
        arrays = self._snapshot()
        floor = self._floor
        if floor is None:
            return arrays, None
        cached = self._pending
        if cached is not None and cached[0] is arrays and cached[1].floor == floor:
            return cached
        cutoff = int(np.searchsorted(arrays.start, floor + TIME_EPSILON))
        kept, start = floor_survivors(
            arrays.start[:cutoff], arrays.end[:cutoff], floor, self.min_usable_length
        )
        self._pending = (arrays, PendingFloor(floor, cutoff, kept, start))
        return self._pending

    def _snapshot(self) -> SlotArrays:
        if self._cache is None or self._cache_generation != self._store.generation:
            self._cache = self._store.snapshot(self._slots)
            self._cache_generation = self._store.generation
        return self._cache

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
        """Invariant check: slots of one node never overlap.

        Primarily used by the test suite and by debugging sessions; a pool
        produced by the environment generator and mutated only through
        :meth:`cut_window` always satisfies it.
        """
        for node_id, slots in self.by_node().items():
            for left, right in zip(slots, slots[1:]):
                if left.overlaps(right):
                    raise AllocationError(
                        f"overlapping slots on node {node_id}: {left!r} / {right!r}"
                    )
