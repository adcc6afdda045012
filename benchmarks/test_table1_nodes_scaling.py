"""Table 1 / Fig. 5: algorithm working time vs the number of CPU nodes.

The paper measures, for node counts {50, 100, 200, 300, 400} (1000 runs
each), the per-selection working time of every algorithm plus CSA's
alternative count.  Its findings, which this module reproduces as trends:

* CSA is orders of magnitude slower and grows near-cubically (linear
  alternative count x near-quadratic per-alternative search) — measured
  on the scheme as the paper states it (``rerun_alternatives``: AMP
  re-run after every cut); the one-sweep kernel ``CSA.find_alternatives``
  serves the same windows from is reported beside it;
* AMP is the fastest and grows near-linearly (it usually stops at the
  start of the interval);
* MinRunTime/MinFinish/MinProcTime/MinCost grow at most quadratically and
  stay fast enough for on-line use.

Each parametrized benchmark is one (algorithm, node count) cell of
Table 1; the summary test prints the full measured table next to the
paper's values and asserts the growth-trend ordering (Fig. 5's message).
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_repetitions, node_sweep
from repro.analysis import render_table
from repro.analysis.paper_reference import TABLE1_CSA_ALTERNATIVES, TABLE1_MS, TABLE1_NODE_COUNTS
from repro.core import AMP, CSA, MinCost, MinFinish, MinProcTime, MinRunTime
from repro.core.algorithms.csa import rerun_alternatives
from repro.simulation import growth_exponent
from repro.simulation.experiment import make_generator

ALGORITHMS = {
    "AMP": lambda: AMP(),
    "MinRunTime": lambda: MinRunTime(),
    "MinFinishTime": lambda: MinFinish(),
    "MinProcTime": lambda: MinProcTime(rng=np.random.default_rng(0)),
    "MinCost": lambda: MinCost(),
}


@pytest.fixture(scope="module")
def pools(base_config):
    """One pre-generated slot pool per swept node count."""
    built = {}
    for node_count in node_sweep():
        config = base_config.with_node_count(node_count)
        built[node_count] = make_generator(config).generate().slot_pool()
    return built


@pytest.mark.parametrize("node_count", node_sweep())
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_table1_cell(benchmark, base_config, pools, name, node_count):
    """One cell of Table 1: mean selection time of one algorithm."""
    benchmark.group = f"table1-nodes-{node_count}"
    algorithm = ALGORITHMS[name]()
    job = base_config.base_job()
    window = benchmark(algorithm.select, job, pools[node_count])
    assert window is not None


@pytest.mark.parametrize("node_count", node_sweep())
def test_table1_csa_cell(benchmark, base_config, pools, node_count):
    """The CSA row of Table 1: the paper's scheme, AMP re-run after every cut."""
    benchmark.group = f"table1-nodes-{node_count}"
    job = base_config.base_job()
    alternatives = benchmark(rerun_alternatives, AMP(), job, pools[node_count])
    assert len(alternatives) > 0


@pytest.mark.parametrize("node_count", node_sweep())
def test_table1_csa_sweep_cell(benchmark, base_config, pools, node_count):
    """The same alternatives from ``CSA.find_alternatives``' one sweep."""
    benchmark.group = f"table1-nodes-{node_count}"
    job = base_config.base_job()
    pool = pools[node_count]
    alternatives = benchmark(CSA().find_alternatives, job, pool)
    assert alternatives == rerun_alternatives(AMP(), job, pool)


def test_table1_summary_and_trends(benchmark, base_config, node_study):
    """The full Table 1 sweep: measured ms vs the paper's values."""
    repetitions = bench_repetitions()
    study = node_study
    # The benchmarked unit of this summary: one CSA search at the largest
    # swept scale (the slowest cell of the paper's Table 1).
    largest = base_config.with_node_count(max(node_sweep()))
    pool = make_generator(largest).generate().slot_pool()
    benchmark.pedantic(
        rerun_alternatives,
        args=(AMP(), base_config.base_job(), pool),
        rounds=3,
        iterations=1,
    )

    headers = ["CPU nodes"] + [str(int(row.parameter)) for row in study.rows]
    rows = [
        ["CSA: Alternatives Num"]
        + [round(row.csa_alternatives.mean, 1) for row in study.rows],
        ["CSA per Alt (ms)"]
        + [round(row.csa_seconds_per_alternative * 1e3, 2) for row in study.rows],
        ["CSA (ms)"] + [round(row.csa_seconds.mean * 1e3, 2) for row in study.rows],
        ["CSA one-sweep (ms)"]
        + [round(row.csa_sweep_seconds.mean * 1e3, 2) for row in study.rows],
    ]
    for name in ("AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"):
        rows.append([f"{name} (ms)"] + [round(row.mean_ms(name), 3) for row in study.rows])
    print()
    print(
        render_table(
            headers,
            rows,
            title=(
                f"Table 1 - working time vs CPU node count "
                f"({repetitions} runs/point; paper used 1000)"
            ),
        )
    )
    paper_rows = [["paper " + name] + list(values) for name, values in TABLE1_MS.items()]
    paper_rows.insert(0, ["paper CSA: Alternatives"] + list(TABLE1_CSA_ALTERNATIVES))
    print()
    print(
        render_table(
            ["(paper, ms)"] + [str(n) for n in TABLE1_NODE_COUNTS],
            paper_rows,
            title="Table 1 - the paper's values (Java, 2010-era i3)",
        )
    )

    # Trend assertions (the content of Fig. 5).
    csa_series = [(row.parameter, row.csa_seconds.mean) for row in study.rows]
    amp_series = study.series_ms("AMP")
    csa_exponent = growth_exponent(csa_series)
    amp_exponent = growth_exponent(amp_series)
    print(
        f"\ngrowth exponents: CSA={csa_exponent:.2f} (paper ~ cubic), "
        f"AMP={amp_exponent:.2f} (paper ~ linear)"
    )
    # CSA grows clearly super-linearly and clearly faster than AMP.
    assert csa_exponent > 1.5
    assert csa_exponent > amp_exponent + 0.3
    # CSA is orders of magnitude slower than AMP at every scale.
    for row in study.rows:
        assert row.csa_seconds.mean > 10 * row.algorithm_seconds["AMP"].mean
    # The one-sweep kernel serves the same alternatives without the
    # re-runs: a lower growth order, and far below the scheme at scale.
    sweep_exponent = growth_exponent(
        [(row.parameter, row.csa_sweep_seconds.mean) for row in study.rows]
    )
    print(f"CSA one-sweep growth exponent: {sweep_exponent:.2f}")
    assert sweep_exponent < csa_exponent
    largest_row = study.rows[-1]
    assert largest_row.csa_seconds.mean >= 5 * largest_row.csa_sweep_seconds.mean
    # CSA's alternative count grows roughly linearly with the node count.
    alt_exponent = growth_exponent(
        [(row.parameter, row.csa_alternatives.mean) for row in study.rows]
    )
    assert 0.6 <= alt_exponent <= 1.4
