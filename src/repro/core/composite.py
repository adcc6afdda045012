"""Composite selection strategies over multiple criteria.

Section 2.1: "By combining the optimization criteria, VO administrators
and users can form alternatives search strategies for every job in the
batch."  The paper leaves the combination machinery to the enclosing
scheduling scheme; this module provides the three standard combinators a
VO actually needs, all built on the primitives of :mod:`repro.core`:

* :func:`weighted_choice` — scalarization: minimize a weighted sum of
  normalized criteria over a set of alternatives;
* :func:`lexicographic_choice` — strict priority: best by the first
  criterion, ties broken by the next (with a relative tolerance that
  treats near-ties as ties, which is what makes the combinator useful on
  continuous criteria);
* :func:`pareto_front` — the set of non-dominated alternatives, the raw
  material for any interactive trade-off.

All operate on window lists — typically the alternatives CSA collected —
so they compose with every search algorithm in the library.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.criteria import Criterion
from repro.model.window import Window, left_sum


def _values(windows: Sequence[Window], criterion: Criterion) -> list[float]:
    return [criterion.evaluate(window) for window in windows]


def normalize(values: Sequence[float]) -> list[float]:
    """Affine rescaling of ``values`` onto [0, 1] (constant -> all zeros)."""
    low, high = min(values), max(values)
    if high - low <= 1e-12:
        return [0.0] * len(values)
    return [(value - low) / (high - low) for value in values]


def weighted_choice(
    windows: Sequence[Window], weights: dict[Criterion, float]
) -> Window:
    """The window minimizing a weighted sum of normalized criteria.

    Each criterion is normalized to [0, 1] over the given set before
    weighting, so weights express *relative importance* rather than unit
    conversions.  Weights must be non-negative and not all zero.
    """
    if not windows:
        raise ValueError("weighted_choice() requires at least one window")
    if not weights:
        raise ValueError("weighted_choice() requires at least one criterion weight")
    if any(weight < 0 for weight in weights.values()):
        raise ValueError("criterion weights must be non-negative")
    total_weight = left_sum(weights.values())
    if total_weight <= 0:
        raise ValueError("criterion weights must not all be zero")

    scores = [0.0] * len(windows)
    raw_scores = [0.0] * len(windows)
    for criterion, weight in weights.items():
        if weight == 0:
            continue
        values = _values(windows, criterion)
        for index, value in enumerate(normalize(values)):
            scores[index] += weight * value
            raw_scores[index] += weight * values[index]
    # Normalization collapses near-ties (its constant-list guard maps value
    # spreads below 1e-12 to all zeros), so break normalized-score ties by
    # the raw weighted sum: for a pure single-criterion weight this makes
    # the choice the exact argmin, not merely an epsilon-close one.
    best_index = min(
        range(len(windows)), key=lambda index: (scores[index], raw_scores[index])
    )
    return windows[best_index]


def lexicographic_choice(
    windows: Sequence[Window],
    criteria: Sequence[Criterion],
    tolerance: float = 0.0,
) -> Window:
    """Best window by strict criterion priority.

    Filter to the windows within ``tolerance`` (relative) of the best value
    on the first criterion, then recurse on the next criterion, and so on;
    the first window of the final survivors wins.  ``tolerance=0`` is the
    classical lexicographic order; a small tolerance (e.g. 0.05) lets a
    slightly-worse primary value buy a much better secondary one.
    """
    if not windows:
        raise ValueError("lexicographic_choice() requires at least one window")
    if not criteria:
        raise ValueError("lexicographic_choice() requires at least one criterion")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    survivors = list(windows)
    for criterion in criteria:
        values = _values(survivors, criterion)
        best = min(values)
        cut = best + tolerance * max(abs(best), 1e-12) + 1e-12
        survivors = [
            window for window, value in zip(survivors, values) if value <= cut
        ]
        if len(survivors) == 1:
            break
    return survivors[0]


def dominates(
    a: Window, b: Window, criteria: Sequence[Criterion], epsilon: float = 1e-9
) -> bool:
    """Whether ``a`` Pareto-dominates ``b``: no worse everywhere, better somewhere."""
    strictly_better = False
    for criterion in criteria:
        value_a = criterion.evaluate(a)
        value_b = criterion.evaluate(b)
        if value_a > value_b + epsilon:
            return False
        if value_a < value_b - epsilon:
            strictly_better = True
    return strictly_better


def pareto_front(
    windows: Sequence[Window], criteria: Sequence[Criterion]
) -> list[Window]:
    """The non-dominated subset of ``windows`` under ``criteria``.

    Preserves the input order among survivors.  Duplicate criterion
    vectors all survive (none dominates the other), so callers comparing
    alternatives never lose a distinct window silently.
    """
    if not criteria:
        raise ValueError("pareto_front() requires at least one criterion")
    front: list[Window] = []
    for candidate in windows:
        if any(dominates(other, candidate, criteria) for other in windows):
            continue
        front.append(candidate)
    return front


def constrained_best(
    windows: Sequence[Window],
    objective: Criterion,
    limits: dict[Criterion, float],
) -> Optional[Window]:
    """Best window by ``objective`` among those meeting every upper limit.

    This is the epsilon-constraint combinator: e.g. the earliest finish
    among alternatives costing at most 1200.  Returns ``None`` when no
    window satisfies all limits.
    """
    feasible = [
        window
        for window in windows
        if all(
            criterion.evaluate(window) <= limit + 1e-9
            for criterion, limit in limits.items()
        )
    ]
    if not feasible:
        return None
    return min(feasible, key=objective.evaluate)
