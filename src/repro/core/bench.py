"""``repro bench-core`` / ``repro bench-batch``: kernel and cycle throughput.

Times the AEP window search on the paper's base job (``n = 5``,
``t = 150``, ``S = 1500``) over freshly generated environments of
several pool sizes, once through the production kernel
(:func:`repro.core.aep.aep_scan`, which dispatches stock strategies to
the vectorized columnar kernel in :mod:`repro.core.vectorized` and runs
its generic ``extract`` loop otherwise) and once through the frozen
original kernel (:mod:`repro.core.reference`).
Besides wall-clock windows/s and the speedup, every row records the
structural ``ScanResult`` counters — ``slots_scanned``, ``steps``,
``candidate_peak``, ``candidate_inserts``, ``candidate_expiries`` — so
the archived baseline (``BENCH_core.json``) tracks the complexity shape
("linear in slots, bounded per-slot work") next to the raw speed, which
is noisy on shared CI hardware.

Both kernels are asserted to select the identical window before any
timing is believed; a disagreement raises instead of producing numbers.

:func:`bench_batch` (``repro bench-batch``) measures one level up: the
*whole scheduling cycle* — phase-one alternative search for a job batch
followed by phase-two greedy combination — dispatched per job versus
through the cycle-level request-class grouping
(:meth:`~repro.core.algorithms.base.SlotSelectionAlgorithm.find_alternatives_batch`).
The batch mixes duplicate requests with budget-only-varying classes, the
traffic shape the grouping targets.  Both dispatches must produce the
byte-identical phase-two decision (same assignments, window spans,
totals) before timings are recorded.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional, Sequence

from repro.core.aep import ScanResult, aep_scan
from repro.core.extractors import (
    EarliestFinishExtractor,
    EarliestStartExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
    WindowExtractor,
)
from repro.core.reference import (
    ReferenceMinRuntimeSubstitutionExtractor,
    reference_scan,
)
from repro.environment.generator import EnvironmentConfig, EnvironmentGenerator
from repro.hostinfo import host_payload
from repro.model.errors import ConfigurationError
from repro.model.job import ResourceRequest
from repro.model.slot import Slot

#: The paper's base resource request (Section 3.1): 5 nodes for 150 time
#: units within a budget of 1500.
BASE_REQUEST = ResourceRequest(node_count=5, reservation_time=150.0, budget=1500.0)


def _criteria() -> list[tuple[str, Callable[[], WindowExtractor], Callable[[], WindowExtractor], bool]]:
    """(name, production extractor, frozen reference extractor, stop_at_first)."""
    return [
        ("start_time", EarliestStartExtractor, EarliestStartExtractor, True),
        ("cost", MinTotalCostExtractor, MinTotalCostExtractor, False),
        (
            "runtime",
            MinRuntimeSubstitutionExtractor,
            ReferenceMinRuntimeSubstitutionExtractor,
            False,
        ),
        (
            "finish_time",
            EarliestFinishExtractor,
            lambda: EarliestFinishExtractor(
                runtime_extractor=ReferenceMinRuntimeSubstitutionExtractor()
            ),
            False,
        ),
    ]


def _windows_match(left: Optional[ScanResult], right: Optional[ScanResult]) -> bool:
    if left is None or right is None:
        return left is None and right is None
    if left.window.start != right.window.start:
        return False
    left_spans = [
        (ws.slot.node.node_id, ws.slot.start, ws.slot.end) for ws in left.window.slots
    ]
    right_spans = [
        (ws.slot.node.node_id, ws.slot.start, ws.slot.end) for ws in right.window.slots
    ]
    return left_spans == right_spans


def _time_scans(run: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of one full scan (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        run()
        best = min(best, perf_counter() - started)
    return best


def bench_core(
    node_counts: Sequence[int] = (50, 100, 200),
    repeats: int = 3,
    seed: int = 2013,
    request: Optional[ResourceRequest] = None,
) -> dict[str, object]:
    """The kernel benchmark payload archived in ``BENCH_core.json``.

    Per (pool size, criterion) row: windows/s through the frozen
    reference kernel and through the vectorized one (best of
    ``repeats``), their ratio, and the vectorized scan's structural
    counters (the ``incremental_*`` JSON key predates the vector kernel
    and is kept so archived baselines stay comparable).  See the module
    docstring for why both are recorded.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    request = request if request is not None else BASE_REQUEST
    results: list[dict[str, object]] = []
    for node_count in node_counts:
        environment = EnvironmentGenerator(
            EnvironmentConfig(node_count=node_count, seed=seed)
        ).generate()
        # The current kernel is timed the way algorithms call it — over
        # the pool, whose columnar snapshot and per-request scan plan are
        # cached across scans of an unmutated pool.  The frozen reference
        # takes the ordered slot list, as it always did.
        pool = environment.slot_pool()
        slots: list[Slot] = pool.ordered()
        for name, make_vector, make_reference, stop_at_first in _criteria():
            vector_extractor = make_vector()
            reference_extractor = make_reference()
            vector = aep_scan(
                request, pool, vector_extractor, stop_at_first=stop_at_first
            )
            reference = reference_scan(
                request, slots, reference_extractor, stop_at_first=stop_at_first
            )
            if not _windows_match(vector, reference):
                raise AssertionError(
                    f"kernel disagreement on criterion {name!r} at "
                    f"{node_count} nodes — refusing to record timings"
                )
            reference_seconds = _time_scans(
                lambda: reference_scan(
                    request, slots, reference_extractor, stop_at_first=stop_at_first
                ),
                repeats,
            )
            vector_seconds = _time_scans(
                lambda: aep_scan(
                    request, pool, vector_extractor, stop_at_first=stop_at_first
                ),
                repeats,
            )
            row: dict[str, object] = {
                "nodes": node_count,
                "criterion": name,
                "slots": len(slots),
                "found": vector is not None,
                "reference_windows_per_second": round(1.0 / reference_seconds, 1),
                "incremental_windows_per_second": round(1.0 / vector_seconds, 1),
                "speedup": round(reference_seconds / vector_seconds, 2),
            }
            if vector is not None:
                row.update(
                    {
                        "window_start": round(vector.window.start, 3),
                        "steps": vector.steps,
                        "slots_scanned": vector.slots_scanned,
                        "candidate_peak": vector.candidate_peak,
                        "candidate_inserts": vector.candidate_inserts,
                        "candidate_expiries": vector.candidate_expiries,
                    }
                )
            results.append(row)
    from repro.core.vectorized import scan_counters

    return {
        "benchmark": "core_scan",
        "kernel": "vectorized",
        "config": {
            "seed": seed,
            "repeats": repeats,
            "request": {
                "node_count": request.node_count,
                "reservation_time": request.reservation_time,
                "budget": request.budget,
            },
        },
        "host": host_payload(),
        "scan_kernel": dict(scan_counters),
        "results": results,
    }


# ---------------------------------------------------------------------------
# bench-batch: whole-cycle throughput, per-job vs class-grouped dispatch
# ---------------------------------------------------------------------------

#: The batch palette: eight request classes over four plan shapes, each
#: shape at two budgets.  Duplicates of one class exercise result
#: sharing; budget-only pairs within a shape exercise the multi-budget
#: shared sweep of :func:`repro.core.batchscan.batch_aep_scan`.
_PALETTE_SHAPES: tuple[tuple[int, float], ...] = (
    (5, 150.0),
    (3, 100.0),
    (8, 150.0),
    (5, 100.0),
)
_PALETTE_BUDGET_PER_UNIT: tuple[float, ...] = (2.0, 4.0)


def _batch_palette() -> list[ResourceRequest]:
    """The request classes a bench batch cycles through (deterministic)."""
    palette: list[ResourceRequest] = []
    for node_count, reservation_time in _PALETTE_SHAPES:
        for per_unit in _PALETTE_BUDGET_PER_UNIT:
            palette.append(
                ResourceRequest(
                    node_count=node_count,
                    reservation_time=reservation_time,
                    budget=per_unit * reservation_time * node_count,
                )
            )
    return palette


def _choice_fingerprint(choice) -> tuple:
    """Exact value of a phase-two decision, for byte-identity checks."""
    assignments = tuple(
        sorted(
            (
                job_id,
                window.start,
                tuple(
                    (
                        ws.slot.node.node_id,
                        ws.slot.start,
                        ws.slot.end,
                        ws.required_time,
                        ws.cost,
                    )
                    for ws in window.slots
                ),
            )
            for job_id, window in choice.assignments.items()
        )
    )
    return (assignments, choice.unscheduled, choice.total_value)


def bench_batch(
    batch_sizes: Sequence[int] = (16, 64, 256),
    node_count: int = 200,
    repeats: int = 3,
    seed: int = 2013,
    alternatives: int = 10,
) -> dict[str, object]:
    """The cycle-throughput benchmark payload archived in ``BENCH_batch.json``.

    Per (search, batch size) row: whole-cycle jobs/s with per-job
    phase-one dispatch and with request-class grouping (best of
    ``repeats``), their ratio, and the grouping telemetry one grouped
    cycle adds to :data:`~repro.core.vectorized.scan_counters`.  Two
    searches are measured: CSA (the production multi-alternative search;
    grouping shares whole alternative sets per class) and MinCost (a
    plain AEP scan; grouping routes through the batched kernel with one
    multi-budget sweep per plan shape).

    Both dispatches must make the byte-identical phase-two decision;
    a mismatch raises instead of recording timings.
    """
    from repro.core.algorithms.csa import CSA
    from repro.core.algorithms.mincost import MinCost
    from repro.core.criteria import Criterion
    from repro.core.vectorized import scan_counters
    from repro.model.job import Job
    from repro.scheduling.combination import greedy_combination

    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=node_count, seed=seed)
    ).generate()
    pool = environment.slot_pool()
    palette = _batch_palette()
    results: list[dict[str, object]] = []
    for search_name, search in (
        ("csa", CSA(max_alternatives=alternatives)),
        ("mincost", MinCost()),
    ):
        for batch_size in batch_sizes:
            jobs = [
                Job(job_id=f"job-{index:04d}", request=palette[index % len(palette)])
                for index in range(batch_size)
            ]
            classes = len({job.request for job in jobs})

            def per_job_cycle():
                found = {
                    job.job_id: search.find_alternatives(
                        job, pool, limit=alternatives
                    )
                    for job in jobs
                }
                return greedy_combination(jobs, found, Criterion.COST)

            def grouped_cycle():
                batched = search.find_alternatives_batch(
                    jobs, pool, limit=alternatives
                )
                found = {
                    job.job_id: windows for job, windows in zip(jobs, batched)
                }
                return greedy_combination(jobs, found, Criterion.COST)

            before = dict(scan_counters)
            grouped_choice = grouped_cycle()
            grouping_delta = {
                key: scan_counters[key] - before.get(key, 0)
                for key in (
                    "grouped_jobs",
                    "grouped_classes",
                    "grouped_shared",
                    "batch_sweeps",
                    "batch_sweep_classes",
                )
            }
            per_job_choice = per_job_cycle()
            if _choice_fingerprint(per_job_choice) != _choice_fingerprint(
                grouped_choice
            ):
                raise AssertionError(
                    f"grouped dispatch changed the phase-two decision for "
                    f"search {search_name!r} at batch size {batch_size} — "
                    "refusing to record timings"
                )
            per_job_seconds = _time_scans(per_job_cycle, repeats)
            grouped_seconds = _time_scans(grouped_cycle, repeats)
            results.append(
                {
                    "search": search_name,
                    "batch_size": batch_size,
                    "classes": classes,
                    "scheduled": per_job_choice.scheduled_count,
                    "unscheduled": len(per_job_choice.unscheduled),
                    "per_job_jobs_per_second": round(
                        batch_size / per_job_seconds, 1
                    ),
                    "grouped_jobs_per_second": round(
                        batch_size / grouped_seconds, 1
                    ),
                    "speedup": round(per_job_seconds / grouped_seconds, 2),
                    "grouping": grouping_delta,
                }
            )
    return {
        "benchmark": "batch_cycle",
        "config": {
            "seed": seed,
            "repeats": repeats,
            "node_count": node_count,
            "batch_sizes": list(batch_sizes),
            "palette_classes": len(palette),
            "alternatives": alternatives,
        },
        "host": host_payload(),
        "scan_kernel": dict(scan_counters),
        "results": results,
    }
