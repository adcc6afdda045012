"""Table 2 / Fig. 6: algorithm working time vs scheduling-interval length.

The paper measures, for interval lengths {600..3600} (1000 runs each, 100
nodes), the working time of every algorithm, the number of published
slots, and CSA's alternative count.  Its finding, reproduced here as a
trend: "all proposed algorithms have a linear complexity with respect to
the length of the scheduling interval and, hence, to the number of the
available slots".

Each parametrized benchmark is one (algorithm, interval length) cell; the
summary prints the measured table next to the paper's and asserts the
linear-growth claims.
"""

import numpy as np
import pytest

from benchmarks.conftest import bench_repetitions, interval_sweep
from repro.analysis import render_table
from repro.analysis.paper_reference import (
    TABLE2_CSA_ALTERNATIVES,
    TABLE2_INTERVALS,
    TABLE2_MS,
    TABLE2_SLOT_COUNTS,
)
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
    """One pre-generated slot pool per swept interval length."""
    built = {}
    for length in interval_sweep():
        config = base_config.with_interval_length(length)
        built[length] = make_generator(config).generate().slot_pool()
    return built


@pytest.mark.parametrize("length", interval_sweep())
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_table2_cell(benchmark, base_config, pools, name, length):
    """One cell of Table 2: mean selection time of one algorithm."""
    benchmark.group = f"table2-interval-{int(length)}"
    algorithm = ALGORITHMS[name]()
    job = base_config.base_job()
    window = benchmark(algorithm.select, job, pools[length])
    assert window is not None


@pytest.mark.parametrize("length", interval_sweep())
def test_table2_csa_cell(benchmark, base_config, pools, length):
    """The CSA row of Table 2: the paper's scheme, AMP re-run after every cut."""
    benchmark.group = f"table2-interval-{int(length)}"
    job = base_config.base_job()
    alternatives = benchmark(rerun_alternatives, AMP(), job, pools[length])
    assert len(alternatives) > 0


@pytest.mark.parametrize("length", interval_sweep())
def test_table2_csa_sweep_cell(benchmark, base_config, pools, length):
    """The same alternatives from ``CSA.find_alternatives``' one sweep."""
    benchmark.group = f"table2-interval-{int(length)}"
    job = base_config.base_job()
    pool = pools[length]
    alternatives = benchmark(CSA().find_alternatives, job, pool)
    assert alternatives == rerun_alternatives(AMP(), job, pool)


def test_table2_summary_and_trends(benchmark, base_config, interval_study):
    """The full Table 2 sweep: measured ms vs the paper's values."""
    repetitions = bench_repetitions()
    study = interval_study
    # The benchmarked unit: one full-interval AMP selection at the largest
    # swept length (the linearly growing scan the table is about).
    largest = base_config.with_interval_length(max(interval_sweep()))
    pool = make_generator(largest).generate().slot_pool()
    benchmark.pedantic(
        MinCost().select, args=(base_config.base_job(), pool), rounds=3, iterations=1
    )

    headers = ["Interval"] + [str(int(row.parameter)) for row in study.rows]
    rows = [
        ["Number of slots"] + [round(row.slot_count.mean, 1) for row in study.rows],
        ["CSA: Alternatives Num"]
        + [round(row.csa_alternatives.mean, 1) for row in study.rows],
        ["CSA per Alt (ms)"]
        + [round(row.csa_seconds_per_alternative * 1e3, 2) for row in study.rows],
        ["CSA (ms)"] + [round(row.csa_seconds.mean * 1e3, 2) for row in study.rows],
        ["CSA one-sweep (ms)"]
        + [round(row.csa_sweep_seconds.mean * 1e3, 2) for row in study.rows],
    ]
    for name in ("AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"):
        rows.append(
            [f"{name} (ms)"] + [round(row.mean_ms(name), 3) for row in study.rows]
        )
    print()
    print(
        render_table(
            headers,
            rows,
            title=(
                f"Table 2 - working time vs scheduling interval length "
                f"({repetitions} runs/point; paper used 1000)"
            ),
        )
    )
    paper_rows = [["paper Number of slots"] + list(TABLE2_SLOT_COUNTS)]
    paper_rows.append(["paper CSA: Alternatives"] + list(TABLE2_CSA_ALTERNATIVES))
    paper_rows.extend(
        ["paper " + name] + list(values) for name, values in TABLE2_MS.items()
    )
    print()
    print(
        render_table(
            ["(paper, ms)"] + [str(n) for n in TABLE2_INTERVALS],
            paper_rows,
            title="Table 2 - the paper's values (Java, 2010-era i3)",
        )
    )

    # Trend assertions (the content of Fig. 6).
    slot_exponent = growth_exponent(
        [(row.parameter, row.slot_count.mean) for row in study.rows]
    )
    print(f"\nslot count growth exponent: {slot_exponent:.2f} (paper ~ linear)")
    assert 0.7 <= slot_exponent <= 1.3  # slots grow linearly with interval

    for name in ("AMP", "MinRunTime", "MinFinish", "MinProcTime", "MinCost"):
        exponent = growth_exponent(study.series_ms(name))
        print(f"{name} growth exponent vs interval: {exponent:.2f}")
        # "Linear complexity with respect to the length of the scheduling
        # interval": the empirical order stays well below quadratic.
        assert exponent <= 1.6, name

    # The one-sweep kernel stays linear in the interval too, well below
    # the re-run scheme at the longest one.
    sweep_exponent = growth_exponent(
        [(row.parameter, row.csa_sweep_seconds.mean) for row in study.rows]
    )
    print(f"CSA one-sweep growth exponent vs interval: {sweep_exponent:.2f}")
    assert sweep_exponent <= 1.6
    longest_row = study.rows[-1]
    assert longest_row.csa_seconds.mean >= 5 * longest_row.csa_sweep_seconds.mean

    # CSA alternative count grows roughly linearly with the interval.
    alt_exponent = growth_exponent(
        [(row.parameter, row.csa_alternatives.mean) for row in study.rows]
    )
    print(f"CSA alternatives growth exponent: {alt_exponent:.2f}")
    assert 0.6 <= alt_exponent <= 1.4
