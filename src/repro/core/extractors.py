"""Window extractors: choose the best ``n``-subset of the extended window.

At every step of the AEP scan the algorithm holds an *extended window* — the
set of candidate slots still alive at the current window start — and must
extract from it the best ``n`` slots by the target criterion subject to the
budget ``S`` (the ``getBestWindow`` call of the paper's pseudo code).  This
module implements one extractor per criterion:

* :class:`EarliestStartExtractor` / :class:`MinTotalCostExtractor` — the
  cheapest-``n`` selection (optimal for both start-time and cost criteria);
* :class:`MinRuntimeSubstitutionExtractor` — the paper's substitution
  heuristic (Section 2.2 pseudo code);
* :class:`MinRuntimeExactExtractor` — an exact prefix-sweep alternative we
  add for the ablation study;
* :class:`EarliestFinishExtractor` — start + minimal runtime;
* :class:`RandomWindowExtractor` — the paper's *simplified* MinProcTime
  selection ("a random window is selected");
* :class:`GreedyAdditiveExtractor` — local-search minimization of any
  additive slot characteristic under the budget (optimizing MinProcTime,
  MinEnergy);
* :class:`ExactAdditiveExtractor` — branch-and-bound reference optimum for
  additive criteria, used by tests and small-scale studies.

Every extractor returns an :class:`Extraction` — the criterion value plus
the chosen slots — or ``None`` when no feasible ``n``-subset exists.

``extract(window_start, candidates, request)`` is the whole protocol: the
alive candidates arrive as a plain sequence in scan order, which is also
what a user-defined criterion implements (``examples/custom_criterion.py``).
The stock strategies are additionally replayed on numpy columns by
:mod:`repro.core.vectorized`; the methods here are the definition that
replay is tested against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from repro.model.job import ResourceRequest
from repro.model.window import Window, WindowSlot, budget_limit, left_sum

#: Minimal improvement for a new extraction to replace the incumbent; ties
#: keep the earlier (earlier-starting) window, like the paper's strict
#: comparison in the pseudo code.
VALUE_EPSILON = 1e-12


@dataclass(frozen=True)
class Extraction:
    """Result of one extraction: the value to minimize and the window legs."""

    value: float
    slots: tuple[WindowSlot, ...]


@dataclass(frozen=True)
class ScanResult:
    """Outcome of an AEP scan, with structural complexity counters.

    The counters give a noise-free view of the paper's complexity claims:
    ``slots_scanned`` grows linearly with the slot list (each slot is
    visited exactly once), ``candidate_peak`` is bounded by the number of
    CPU nodes (at most one alive slot per node), and ``steps`` counts the
    per-step extractions whose cost depends on the alive-set size — hence
    "linear in slots, quadratic in nodes".

    ``candidate_inserts`` / ``candidate_expiries`` count the extended
    window's structural mutations.  Each scanned slot inserts at most one
    candidate and every insert expires at most once, so
    ``inserts + expiries <= 2 * slots_scanned`` — the amortized-O(1)
    per-slot bookkeeping bound the regression tests pin down.  (With a
    deadline, candidates that can no longer finish in time are expired
    immediately, so ``candidate_peak`` counts only *eligible* candidates;
    the frozen ``reference_scan`` in ``tests/core/reference.py`` keeps
    them alive and filters per step.)
    """

    window: Window
    value: float
    steps: int  # number of extraction attempts
    slots_scanned: int = 0  # slots visited by the scan
    candidate_peak: int = 0  # largest extended-window size observed
    candidate_inserts: int = 0  # candidates entering the extended window
    candidate_expiries: int = 0  # candidates pruned by expiry


class WindowExtractor(Protocol):
    """Callable choosing the best feasible ``n``-subset of the candidates."""

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible subset, or ``None`` when infeasible."""
        ...  # pragma: no cover


def _budget_of(request: ResourceRequest) -> float:
    return budget_limit(request.effective_budget)


def runtime_key(ws: WindowSlot) -> float:
    """The task duration of a leg — the default additive objective.

    Module-level (rather than a per-instance lambda) so extractor
    instances survive pickling into worker processes and the vectorized
    kernel can recognize the objective by identity.
    """
    return ws.required_time


def energy_key(ws: WindowSlot) -> float:
    """The energy drawn by a leg (``node.power() * required_time``)."""
    return ws.energy()


def cheapest_subset(
    candidates: Sequence[WindowSlot], n: int, budget: float
) -> Optional[list[WindowSlot]]:
    """The ``n`` cheapest candidates, or ``None`` if they exceed ``budget``.

    Because any feasible subset costs at least as much as the ``n``
    cheapest, this is also the *feasibility oracle*: a window exists at this
    scan step iff the ``n`` cheapest fit into the budget.
    """
    if len(candidates) < n:
        return None
    chosen = sorted(candidates, key=lambda ws: (ws.cost, ws.required_time))[:n]
    if left_sum(ws.cost for ws in chosen) > budget:
        return None
    return chosen


class EarliestStartExtractor:
    """Start-time extraction: the first feasible window wins.

    Takes the ``n`` cheapest alive candidates.  Because any feasible subset
    costs at least as much as the cheapest one, the first scan step with a
    feasible extraction has the *optimal* (earliest possible) start time.
    This backs ``AMP(policy="cheapest")``; the paper-faithful AMP uses its
    own eviction scan instead (see :mod:`repro.core.algorithms.amp`).
    """

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        chosen = cheapest_subset(candidates, request.node_count, _budget_of(request))
        if chosen is None:
            return None
        return Extraction(value=window_start, slots=tuple(chosen))


class MinTotalCostExtractor:
    """Selects the ``n`` cheapest candidates; value is their total cost.

    "For this purpose in the AEP search scheme n slots with the minimum sum
    cost should be chosen" — for an additive cost objective the greedy
    choice is exactly optimal.
    """

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        chosen = cheapest_subset(candidates, request.node_count, _budget_of(request))
        if chosen is None:
            return None
        return Extraction(value=left_sum(ws.cost for ws in chosen), slots=tuple(chosen))


class MinRuntimeSubstitutionExtractor:
    """The paper's substitution heuristic for the minimum-runtime window.

    Start from the ``n`` cheapest candidates, then walk the remaining
    candidates in ascending cost order, each time trying to replace the
    current longest slot with the next candidate when it is shorter and the
    budget still holds.  (The paper's pseudo code tests
    ``resultWindow.cost + shortSlot.cost < S``, which does not subtract the
    removed slot's cost; we implement the evidently intended post-swap cost
    check and note the deviation here.)
    """

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        n = request.node_count
        budget = _budget_of(request)
        ordered = sorted(candidates, key=lambda ws: (ws.cost, ws.required_time))
        if len(ordered) < n:
            return None
        result = ordered[:n]
        cost = left_sum(ws.cost for ws in result)
        if cost > budget:
            return None
        times = [ws.required_time for ws in result]
        for short in ordered[n:]:
            # The replacement target is the *first* longest member.
            longest_index = 0
            longest_time = times[0]
            for index in range(1, n):
                if times[index] > longest_time:
                    longest_time = times[index]
                    longest_index = index
            if (
                short.required_time < longest_time
                and cost - result[longest_index].cost + short.cost <= budget
            ):
                cost += short.cost - result[longest_index].cost
                result[longest_index] = short
                times[longest_index] = short.required_time
        return Extraction(value=max(times), slots=tuple(result))


class MinRuntimeExactExtractor:
    """Exact minimum-runtime extraction by a prefix sweep.

    Sort candidates by required time; for growing prefixes keep the ``n``
    cheapest seen so far in a max-heap.  The first prefix whose ``n``
    cheapest fit the budget yields the optimal runtime: any feasible subset
    with a smaller maximal required time would live inside a shorter prefix
    whose cheapest-``n`` test would already have passed.  ``O(m log n)``.
    """

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        n = request.node_count
        budget = _budget_of(request)
        by_time = sorted(candidates, key=lambda ws: (ws.required_time, ws.cost))
        if len(by_time) < n:
            return None
        heap: list[tuple[float, int]] = []  # max-heap by cost via negation
        kept: dict[int, WindowSlot] = {}
        cost_sum = 0.0
        for index, ws in enumerate(by_time):
            if len(heap) < n:
                heapq.heappush(heap, (-ws.cost, index))
                kept[index] = ws
                cost_sum += ws.cost
            elif ws.cost < -heap[0][0]:
                _, evicted = heapq.heapreplace(heap, (-ws.cost, index))
                cost_sum += ws.cost - kept.pop(evicted).cost
                kept[index] = ws
            if len(heap) == n and cost_sum <= budget:
                chosen = list(kept.values())
                return Extraction(
                    value=max(w.required_time for w in chosen), slots=tuple(chosen)
                )
        return None


class EarliestFinishExtractor:
    """Start plus minimal runtime — the MinFinish criterion.

    "The minimum finish time for a window on this set of slots is
    (tStart + minRuntime)"; the runtime part delegates to a runtime
    extractor (the paper's substitution procedure by default).
    """

    def __init__(self, runtime_extractor: Optional[WindowExtractor] = None):
        self._runtime = runtime_extractor or MinRuntimeSubstitutionExtractor()

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        extraction = self._runtime.extract(window_start, candidates, request)
        if extraction is None:
            return None
        runtime = max(ws.required_time for ws in extraction.slots)
        return Extraction(value=window_start + runtime, slots=extraction.slots)


class RandomWindowExtractor:
    """The paper's *simplified* MinProcTime selection: a random window.

    "This implementation is simplified and does not guarantee an optimal
    result and only partially matches the AEP scheme, because a random
    window is selected."  We draw ``attempts`` random ``n``-subsets and
    return the first feasible one; if all draws bust the budget we fall
    back to the ``n`` cheapest (which is feasible whenever anything is).
    The value is the additive characteristic being minimized — total
    processor time by default.
    """

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        key: Callable[[WindowSlot], float] = runtime_key,
        attempts: int = 1,
    ):
        self._rng = rng if rng is not None else np.random.default_rng()
        self._key = key
        self._attempts = max(1, attempts)

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        n = request.node_count
        budget = _budget_of(request)
        if len(candidates) < n:
            return None
        pool = list(candidates)
        chosen: Optional[list[WindowSlot]] = None
        for _ in range(self._attempts):
            picked_indices = self._rng.choice(len(pool), size=n, replace=False)
            picked = [pool[int(i)] for i in picked_indices]
            if left_sum(ws.cost for ws in picked) <= budget:
                chosen = picked
                break
        if chosen is None:
            chosen = cheapest_subset(pool, n, budget)
            if chosen is None:
                return None
        return Extraction(
            value=left_sum(self._key(ws) for ws in chosen), slots=tuple(chosen)
        )


class GreedyAdditiveExtractor:
    """Local-search minimization of an additive slot characteristic.

    Minimizes ``sum(key(slot))`` over ``n``-subsets under the budget — the
    0-1 programming problem of Section 2.1 with ``z_i = key(s_i)``.  Starts
    from the ``n`` cheapest candidates and repeatedly applies the single
    swap (one in, one out) that most reduces the objective while keeping
    the subset affordable, until no improving swap exists.  This is the
    natural generalization of the paper's substitution procedure from a
    bottleneck objective to an additive one.
    """

    #: Objective names the vectorized kernel knows how to precompute as a
    #: numpy column; anything else forces the object-path fallback.
    VECTOR_KEYS = ("required_time", "energy")

    def __init__(
        self,
        key: Callable[[WindowSlot], float] = runtime_key,
        max_rounds: int = 64,
        key_name: Optional[str] = None,
    ):
        self._key = key
        self._max_rounds = max(1, max_rounds)
        if key_name is None:
            if key is runtime_key:
                key_name = "required_time"
            elif key is energy_key:
                key_name = "energy"
        self.key_name = key_name

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        n = request.node_count
        budget = _budget_of(request)
        chosen = cheapest_subset(candidates, n, budget)
        if chosen is None:
            return None
        in_window = set(map(id, chosen))
        outside = [ws for ws in candidates if id(ws) not in in_window]
        return self._swap_search(list(chosen), outside, budget)


    def _swap_search(
        self, current: list[WindowSlot], outside: list[WindowSlot], budget: float
    ) -> Extraction:
        """The swap loop, over key/cost arrays computed once per extraction."""
        key = self._key
        current_keys = [key(ws) for ws in current]
        current_costs = [ws.cost for ws in current]
        outside_keys = [key(ws) for ws in outside]
        outside_costs = [ws.cost for ws in outside]
        cost = left_sum(current_costs)
        out_range = range(len(outside))
        for _ in range(self._max_rounds):
            best_gain = 0.0
            best_swap: Optional[tuple[int, int]] = None
            for out_index in range(len(current)):
                out_cost = current_costs[out_index]
                out_key = current_keys[out_index]
                headroom = cost - out_cost
                for in_index in out_range:
                    if headroom + outside_costs[in_index] > budget:
                        continue
                    gain = out_key - outside_keys[in_index]
                    if gain > best_gain + 1e-12:
                        best_gain = gain
                        best_swap = (out_index, in_index)
            if best_swap is None:
                break
            out_index, in_index = best_swap
            cost += outside_costs[in_index] - current_costs[out_index]
            current[out_index], outside[in_index] = (
                outside[in_index],
                current[out_index],
            )
            current_keys[out_index], outside_keys[in_index] = (
                outside_keys[in_index],
                current_keys[out_index],
            )
            current_costs[out_index], outside_costs[in_index] = (
                outside_costs[in_index],
                current_costs[out_index],
            )
        return Extraction(value=left_sum(current_keys), slots=tuple(current))


class ExactAdditiveExtractor:
    """Branch-and-bound reference optimum for additive criteria.

    Exact counterpart of :class:`GreedyAdditiveExtractor`; exponential in
    the worst case, so intended for tests, validation and small candidate
    sets.  Pruning uses two admissible bounds: the sum of the smallest
    remaining keys (objective bound) and the sum of the smallest remaining
    costs (feasibility bound).
    """

    def __init__(self, key: Callable[[WindowSlot], float] = runtime_key):
        self._key = key

    def extract(
        self,
        window_start: float,
        candidates: Sequence[WindowSlot],
        request: ResourceRequest,
    ) -> Optional[Extraction]:
        """Best feasible ``n``-subset at this scan step (see class docs)."""
        n = request.node_count
        budget = _budget_of(request)
        items = sorted(candidates, key=self._key)
        m = len(items)
        if m < n:
            return None
        keys = [self._key(ws) for ws in items]
        costs = [ws.cost for ws in items]

        # suffix_min_costs[i][k]: sum of the k smallest costs among items[i:].
        suffix_sorted_costs: list[list[float]] = [[] for _ in range(m + 1)]
        for i in range(m - 1, -1, -1):
            merged = sorted(suffix_sorted_costs[i + 1] + [costs[i]])
            suffix_sorted_costs[i] = merged[:n]

        best_value = float("inf")
        best_subset: Optional[list[int]] = None

        def visit(index: int, taken: list[int], key_sum: float, cost_sum: float) -> None:
            """Depth-first branch-and-bound recursion."""
            nonlocal best_value, best_subset
            remaining = n - len(taken)
            if remaining == 0:
                # The feasibility bound below only vouches for the
                # cheapest completion, not for the item actually taken
                # last, so the full subset is priced here.
                if cost_sum <= budget and key_sum < best_value:
                    best_value = key_sum
                    best_subset = list(taken)
                return
            if m - index < remaining:
                return
            # Objective bound: keys are globally sorted ascending, so the
            # next `remaining` items are the cheapest possible completion.
            lower = key_sum + left_sum(keys[index : index + remaining])
            if lower >= best_value:
                return
            # Feasibility bound: cheapest possible completion cost.
            min_completion = left_sum(suffix_sorted_costs[index][:remaining])
            if cost_sum + min_completion > budget:
                return
            taken.append(index)
            visit(index + 1, taken, key_sum + keys[index], cost_sum + costs[index])
            taken.pop()
            visit(index + 1, taken, key_sum, cost_sum)

        visit(0, [], 0.0, 0.0)
        if best_subset is None:
            return None
        chosen = tuple(items[i] for i in best_subset)
        return Extraction(value=best_value, slots=chosen)
