"""Reproduce the paper's Figs. 2-4 comparison at configurable scale.

Runs N independent scheduling cycles of the Section 3.1 base experiment
(a fresh 100-node environment per cycle, one predefined 5x150 job with a
1500 budget) and prints, for each reported criterion, the measured means
side by side with the paper's published values.

Each cycle draws from its own spawned RNG stream, so the cycles fan out
over worker processes and the aggregates are bit-identical for every
worker count — pass 0 workers for the no-subprocess in-process mode.

Run:  python examples/algorithm_comparison.py [cycles] [workers]
      (default 200 cycles in-process; the paper used 5000 — pass
      "5000 8" for a full run on 8 cores)
"""

import sys
import time

from repro.analysis import comparison_table
from repro.analysis.paper_reference import CSA_BASE_ALTERNATIVES, FIGURE_REFERENCES
from repro.core import Criterion
from repro.simulation import paper_base_config, run_comparison

FIGURES = (
    ("Fig. 2(a) average start time", Criterion.START_TIME),
    ("Fig. 2(b) average runtime", Criterion.RUNTIME),
    ("Fig. 3(a) average finish time", Criterion.FINISH_TIME),
    ("Fig. 3(b) average CPU usage time", Criterion.PROCESSOR_TIME),
    ("Fig. 4    average execution cost", Criterion.COST),
)


def main() -> None:
    cycles = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    config = paper_base_config(cycles=cycles, seed=2013)
    print(
        f"running {cycles} scheduling cycles of the base experiment "
        f"({workers or 'in-process'} worker(s)) ..."
    )
    began = time.perf_counter()
    result = run_comparison(config, workers=workers or None)
    elapsed = time.perf_counter() - began

    print(
        f"\n{result.cycles_run} cycles in {elapsed:.1f}s wall "
        f"({result.cycles_run / elapsed:.1f} cycles/s)\n"
        f"slots per cycle: {result.slot_count.mean:.1f} (paper: 472.6)   "
        f"CSA alternatives per cycle: {result.csa.alternatives.mean:.1f} "
        f"(paper: {CSA_BASE_ALTERNATIVES:.0f})"
    )
    for title, criterion in FIGURES:
        means = {
            name: stats.mean(criterion)
            for name, stats in result.algorithms.items()
        }
        means["CSA"] = result.csa_mean_of(criterion)
        print()
        print(comparison_table(means, FIGURE_REFERENCES[criterion], title=title))

    print(
        "\nNote: absolute values depend on the calibrated market-pricing "
        "parameters (see repro/environment/pricing.py); the orderings and "
        "ratios are the reproduced result."
    )


if __name__ == "__main__":
    main()
