"""Ablation: generic per-step sorting vs precomputed cost order.

Quantifies the constant-factor headroom the paper's scan structure leaves:
computing the candidate cost order once per scan (the vectorized kernel
behind ``MinCost``, see ``repro.core.vectorized``) returns identical
MinCost windows at a fraction of the per-selection time of the frozen
generic kernel (``tests.core.reference``), which re-sorts the candidates
at every scan step.
"""

import time

from repro.analysis import render_table
from repro.core import MinCost
from repro.core.extractors import MinTotalCostExtractor
from repro.simulation.experiment import make_generator
from tests.core.reference import reference_scan

SAMPLES = 10


def generic_min_cost(job, pool):
    """MinCost through the frozen original kernel."""
    result = reference_scan(job, pool.ordered(), MinTotalCostExtractor())
    return result.window if result is not None else None


def test_ablation_fast_scan(benchmark, base_config):
    generator = make_generator(base_config)
    job = base_config.base_job()
    production = MinCost()
    pools = [generator.generate().slot_pool() for _ in range(SAMPLES)]

    slow_seconds = fast_seconds = 0.0
    for pool in pools:
        begin = time.perf_counter()
        slow = generic_min_cost(job, pool)
        slow_seconds += time.perf_counter() - begin
        begin = time.perf_counter()
        fast = production.select(job, pool)
        fast_seconds += time.perf_counter() - begin
        assert fast.total_cost == slow.total_cost or abs(
            fast.total_cost - slow.total_cost
        ) < 1e-6

    window = benchmark(production.select, job, pools[0])
    assert window is not None

    speedup = slow_seconds / max(fast_seconds, 1e-12)
    print()
    print(
        render_table(
            ["variant", "total seconds", "speedup"],
            [
                ["generic scan (sort per step)", slow_seconds, "1.0x"],
                ["precomputed order", fast_seconds, f"{speedup:.1f}x"],
            ],
            title=f"Ablation - MinCost scan implementation ({SAMPLES} environments)",
            precision=4,
        )
    )

    # Identical results, and no slower than the generic implementation
    # (allow a noise margin; typically the production scan is far faster).
    assert fast_seconds <= slow_seconds * 1.2
