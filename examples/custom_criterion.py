"""Extending AEP with a custom optimization criterion.

The AEP scheme is generic: any function that extracts the best feasible
``n``-subset from the extended window plugs into the same linear scan.
This example defines a *load-balance* criterion — prefer windows whose
task durations are as uniform as possible (a small "rough right edge"),
so that no node idles while the slowest task finishes — and runs it
through :func:`repro.aep_scan` next to the built-in criteria.

It also shows the shortcut for additive criteria: reusing
``GreedyAdditiveExtractor`` with a custom per-slot key (here: a
data-staging cost proportional to the node's disk).

(The balanced-edge idea proved useful enough that the library ships it as
``repro.MinIdle`` with the ``Criterion.IDLE_TIME`` metric; this example
keeps the from-scratch version as the extension tutorial.)

Run:  python examples/custom_criterion.py
"""

from repro import (
    EnvironmentConfig,
    EnvironmentGenerator,
    Job,
    MinRunTime,
    ResourceRequest,
    aep_scan,
)
from repro.core.extractors import Extraction, GreedyAdditiveExtractor, cheapest_subset
from repro.model.window import budget_limit, left_sum


class BalancedEdgeExtractor:
    """Minimize the spread between the longest and shortest task.

    Strategy: sort candidates by required time and slide a window of ``n``
    consecutive durations — consecutive-in-duration subsets have the
    smallest spread — keeping the cheapest feasible one.
    """

    def extract(self, window_start, candidates, request):
        n = request.node_count
        budget = budget_limit(request.effective_budget)
        if len(candidates) < n:
            return None
        by_time = sorted(candidates, key=lambda ws: ws.required_time)
        best = None
        for offset in range(len(by_time) - n + 1):
            group = by_time[offset : offset + n]
            if left_sum(ws.cost for ws in group) > budget:
                continue
            spread = group[-1].required_time - group[0].required_time
            if best is None or spread < best.value:
                best = Extraction(value=spread, slots=tuple(group))
        return best


def main() -> None:
    environment = EnvironmentGenerator(
        EnvironmentConfig(node_count=100, seed=23)
    ).generate()
    pool = environment.slot_pool()
    job = Job(
        "custom", ResourceRequest(node_count=5, reservation_time=150.0, budget=1500.0)
    )

    print("built-in MinRunTime vs a custom balanced-edge criterion:\n")
    runtime_window = MinRunTime().select(job, pool)
    balanced = aep_scan(job, pool, BalancedEdgeExtractor())
    for label, window in (
        ("MinRunTime", runtime_window),
        ("BalancedEdge", balanced.window if balanced else None),
    ):
        durations = sorted(ws.required_time for ws in window.slots)
        spread = durations[-1] - durations[0]
        idle = sum(durations[-1] - d for d in durations)
        print(
            f"  {label:<13} runtime {window.runtime:5.1f}, edge spread {spread:5.1f}, "
            f"idle node-time {idle:6.1f}, cost {window.total_cost:7.1f}"
        )
    print(
        "\n  -> the balanced window wastes far less co-allocated node time\n"
        "     waiting for its slowest task (at some cost in raw runtime)."
    )

    # Additive custom criteria need no new extractor at all:
    staging = GreedyAdditiveExtractor(
        key=lambda ws: 0.5 * ws.slot.node.spec.disk / ws.slot.node.performance
    )
    result = aep_scan(job, pool, staging)
    print(
        f"\nadditive data-staging criterion via GreedyAdditiveExtractor: "
        f"value {result.value:.1f}, window cost {result.window.total_cost:.1f}"
    )
    result.window.validate(job.request)
    print("window validated against the request: OK")


if __name__ == "__main__":
    main()
