"""Extension study: VO phase-two policies over a sustained job flow.

The paper's algorithms feed phase one of the enclosing scheduling scheme;
this study measures the *policy* effect over many cycles: running the same
seeded arrival stream through the broker under different phase-two
criteria, the cheapest policy spends the least per scheduled job and the
finish-time policy keeps makespan short — the job-flow counterpart of
Fig. 4's spread.
"""

from repro.analysis import render_table
from repro.core import Criterion
from repro.service import ServiceConfig, run_flow

POLICIES = (Criterion.FINISH_TIME, Criterion.COST, Criterion.PROCESSOR_TIME)
SEED = 31337


def run_policy(criterion: Criterion):
    return run_flow(
        cycles=6,
        arrivals=4,
        node_count=40,
        seed=SEED,
        service=ServiceConfig(
            max_deferrals=2, alternatives_per_job=10, criterion=criterion
        ),
    )


def test_flow_policies(benchmark):
    results = {criterion: run_policy(criterion) for criterion in POLICIES}

    # Benchmarked unit: one full flow under the default policy.
    benchmark.pedantic(run_policy, args=(Criterion.FINISH_TIME,), rounds=1, iterations=1)

    rows = [
        [
            criterion.label,
            result.scheduled_total,
            result.dropped_total,
            result.cost.mean,
            result.waiting_cycles.mean,
        ]
        for criterion, result in results.items()
    ]
    print()
    print(
        render_table(
            ["phase-2 policy", "scheduled", "dropped", "mean cost", "mean wait"],
            rows,
            title="VO policies over 6 cycles x 4 arrivals (identical workload)",
        )
    )

    # The cheapest policy pays the least per scheduled job.
    cost_policy = results[Criterion.COST].cost.mean
    for criterion in (Criterion.FINISH_TIME, Criterion.PROCESSOR_TIME):
        assert cost_policy <= results[criterion].cost.mean + 1e-9

    # Every policy schedules the bulk of the workload on 40 nodes.
    for result in results.values():
        assert result.scheduled_total >= 0.7 * (6 * 4)
        assert 0.0 <= result.drop_rate <= 0.3
