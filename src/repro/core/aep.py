"""The AEP scan — the paper's general slot-search scheme (Section 2.1).

The scan walks the list of available slots ordered by non-decreasing start
time exactly once.  It maintains the *extended window*: the set of
candidate slots that could still host a task if the window started at the
current position.  Whenever at least ``n`` candidates are alive, a
criterion-specific extractor picks the best feasible ``n``-subset, and the
best extraction over the whole scan wins.

Because the slot list is start-ordered and the scan never revisits earlier
slots, the number of extended-window updates is linear in the number of
slots ``m`` (each slot enters the extended window once and leaves at most
once); the per-step extraction works on the alive candidates, whose count
is bounded by the number of CPU nodes — hence the paper's "linear
complexity on the number of slots, quadratic on the number of nodes".

Two implementations serve a scan.  The loop below is the scheme as
written: it keeps the alive candidates in scan order (an
insertion-ordered dict plus a min-heap of each candidate's last viable
window start, so every candidate enters and leaves exactly once), builds
window legs through a per-scan :class:`~repro.core.candidates.LegFactory`
cache, and calls the extractor's plain ``extract`` on the alive list at
every step — any object with that method is a criterion.  When the slots
come from a :class:`~repro.model.SlotPool` (or a start-ordered slot
list) and the extractor is one of the stock strategies,
:func:`aep_scan` hands the scan to the columnar replay in
:mod:`repro.core.vectorized` instead, which evaluates eligibility and
leg costs on numpy arrays and returns the byte-identical
:class:`ScanResult` — for the randomized
:class:`~repro.core.extractors.RandomWindowExtractor` that includes
leaving the extractor's generator in the state this loop would leave it
in; ``repro.core.vectorized.scan_counters`` records which of the two
served each scan.  The frozen ``reference_scan`` in
``tests/core/reference.py`` is the baseline the equivalence tests hold
both against.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, Optional, Union

from repro.core.candidates import LegFactory
from repro.core.extractors import VALUE_EPSILON, ScanResult, WindowExtractor
from repro.core.vectorized import UNSUPPORTED, vectorized_scan
from repro.model.job import Job, ResourceRequest
from repro.model.slot import TIME_EPSILON, Slot, fits_from, last_start
from repro.model.window import Window, WindowSlot


def request_of(job: Union[Job, ResourceRequest]) -> ResourceRequest:
    """Accept either a :class:`Job` or a bare :class:`ResourceRequest`."""
    if isinstance(job, Job):
        return job.request
    return job


def aep_scan(
    job: Union[Job, ResourceRequest],
    slots: Iterable[Slot],
    extractor: WindowExtractor,
    *,
    stop_at_first: bool = False,
    leg_factory: Optional[LegFactory] = None,
) -> Optional[ScanResult]:
    """Run the AEP scheme over ``slots`` with the given extractor.

    Parameters
    ----------
    job:
        The job (or bare request) whose window is being sought.
    slots:
        Available slots **ordered by non-decreasing start time** (the
        precondition of the linear scan; :class:`~repro.model.SlotPool`
        iteration provides it).
    extractor:
        Criterion-specific ``getBestWindow`` implementation: anything
        with ``extract(window_start, candidates, request)``, which
        receives the alive candidates in scan order.
    stop_at_first:
        Stop at the first successful extraction.  Correct only for
        criteria that cannot improve later in the scan — the window start
        time (AMP) being the canonical case.
    leg_factory:
        Optional shared per-(node, request) leg cache; callers that scan
        the same request repeatedly (CSA's AMP re-runs) pass one to avoid
        recomputing per-node runtimes and costs.

    Returns
    -------
    ScanResult or None
        The best window found, its criterion value and the number of
        extraction attempts; ``None`` when no feasible window exists.
    """
    request = request_of(job)
    vector = vectorized_scan(request, slots, extractor, stop_at_first=stop_at_first)
    if vector is not UNSUPPORTED:
        # The replay's selection, value and counters are byte-identical
        # to the loop below (see the equivalence suite).
        return vector
    n = request.node_count
    deadline = request.deadline
    legs = leg_factory if leg_factory is not None else LegFactory(request)
    alive: dict[int, WindowSlot] = {}  # arrival serial -> leg, in scan order
    expiry: list[tuple[float, int]] = []  # (last viable window start, serial)

    best_window: Optional[Window] = None
    best_value = float("inf")
    steps = 0
    slots_scanned = 0
    candidate_peak = 0
    inserted = 0
    expired = 0
    previous_start = None

    for slot in slots:
        slots_scanned += 1
        if previous_start is not None and slot.start < previous_start - TIME_EPSILON:
            raise ValueError(
                "aep_scan requires slots ordered by non-decreasing start time"
            )
        previous_start = slot.start
        if not request.node_matches(slot.node):
            continue  # properHardwareAndSoftware filter
        leg = legs.leg(slot)
        window_start = slot.start
        # Expire candidates that can no longer host their task from here
        # on (each candidate is examined exactly once, when it expires).
        while expiry and not fits_from(expiry[0][0], window_start):
            del alive[heappop(expiry)[1]]
            expired += 1
        # The deadline folds into the slot end, so missing it is just
        # another (possibly earlier) expiry; a leg that does not fit from
        # its own start is skipped (later starts only make it worse, but
        # other nodes may be faster).
        last = last_start(slot.end, leg.required_time, deadline)
        if not fits_from(last, window_start):
            continue
        inserted += 1
        alive[inserted] = leg
        heappush(expiry, (last, inserted))
        if len(alive) > candidate_peak:
            candidate_peak = len(alive)
        if len(alive) < n:
            continue
        steps += 1
        extraction = extractor.extract(window_start, list(alive.values()), request)
        if extraction is None:
            continue
        if extraction.value < best_value - VALUE_EPSILON:
            best_value = extraction.value
            best_window = Window(start=window_start, slots=extraction.slots)
            if stop_at_first:
                break
    if best_window is None:
        return None
    return ScanResult(
        window=best_window,
        value=best_value,
        steps=steps,
        slots_scanned=slots_scanned,
        candidate_peak=candidate_peak,
        candidate_inserts=inserted,
        candidate_expiries=expired,
    )
