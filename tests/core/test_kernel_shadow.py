"""The vector kernel under its shadow oracle (``kernel_shadow``).

Every scan the kernel serves in these runs is re-run on the generic loop
with the textbook ``extract`` and compared in full — the legs, the
value, every structural counter and, for the randomized MinProcTime, the
generator's state afterwards — and every CSA consume sweep is re-run as
the copy / AMP / cut procedure and compared window for window.  Four
drivers: a test-size paper study (all five single-window algorithms plus
CSA on fresh pools, the one place the randomized MinProcTime runs), the
eight-class request palette of the ``burst_classes`` workload, one
scan per job, once per stock extractor, and two small brokers
searching with CSA — one shaped like ``tenants_faults`` (cheapest policy,
DRF tenancy, repair resilience, over-subscribed, tight budgets), one on
the default first policy — and a first-policy broker on a static pool,
where searches proven empty are answered by the pool's certificates and
the shadow re-runs each such answer as the procedure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CSA, aep_scan, vectorized
from repro.core.extractors import (
    EarliestFinishExtractor,
    EarliestStartExtractor,
    GreedyAdditiveExtractor,
    MinRuntimeExactExtractor,
    MinRuntimeSubstitutionExtractor,
    MinTotalCostExtractor,
    RandomWindowExtractor,
    energy_key,
)
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.environment.rolling import HorizonConfig, RollingHorizonSource
from repro.model import Job, ResourceRequest, SlotPool
from repro.scheduling.metascheduler import BatchScheduler
from repro.service import BrokerService, ResilienceConfig, ServiceConfig
from repro.simulation.config import paper_base_config
from repro.simulation.jobgen import JobGenerator
from repro.simulation.runner import run_comparison
from repro.tenancy import TenancyConfig

#: The ``burst_classes`` palette (``perf/workloads.py``): four shapes
#: ``(node_count, reservation_time)`` times two budgets per unit.
PALETTE_SHAPES = ((5, 150.0), (3, 100.0), (8, 150.0), (5, 100.0))
PALETTE_BUDGET_PER_UNIT = (2.0, 4.0)

#: (id, extractor factory, stop_at_first): every stock extractor the
#: kernel replays, the start criterion in both scan modes.
STOCK = [
    ("start_first", EarliestStartExtractor, True),
    ("start_full", EarliestStartExtractor, False),
    ("cost", MinTotalCostExtractor, False),
    ("runtime_substitution", MinRuntimeSubstitutionExtractor, False),
    ("runtime_exact", MinRuntimeExactExtractor, False),
    ("finish_substitution", EarliestFinishExtractor, False),
    (
        "finish_exact",
        lambda: EarliestFinishExtractor(MinRuntimeExactExtractor()),
        False,
    ),
    ("greedy_runtime", GreedyAdditiveExtractor, False),
    ("greedy_energy", lambda: GreedyAdditiveExtractor(energy_key), False),
    (
        "random",
        lambda: RandomWindowExtractor(rng=np.random.default_rng(41), attempts=3),
        False,
    ),
]


def palette_batch(rng: np.random.Generator, size: int = 24) -> list[Job]:
    palette = [
        ResourceRequest(
            node_count=node_count,
            reservation_time=reservation_time,
            budget=per_unit * reservation_time * node_count,
        )
        for node_count, reservation_time in PALETTE_SHAPES
        for per_unit in PALETTE_BUDGET_PER_UNIT
    ]
    return [
        Job(job_id=f"palette-{index}", request=palette[int(rng.integers(len(palette)))])
        for index in range(size)
    ]


def test_paper_study_under_shadow(kernel_shadow):
    config = paper_base_config(cycles=3).with_node_count(40)
    result = run_comparison(config, include_csa=True)
    assert result.cycles_run == 3
    assert kernel_shadow.divergences == []
    # MinFinish, MinCost, MinRunTime and MinProcTime are one kernel scan
    # each per cycle (AMP and CSA run their own sweeps).
    assert kernel_shadow.checked["scan"] == 4 * 3


@pytest.mark.parametrize(
    "make_extractor, stop_at_first",
    [pytest.param(make, stop, id=name) for name, make, stop in STOCK],
)
def test_palette_batch_under_shadow(kernel_shadow, make_extractor, stop_at_first):
    pool = EnvironmentGenerator(
        EnvironmentConfig(node_count=60, seed=2013)
    ).generate().slot_pool()
    jobs = palette_batch(np.random.default_rng(7))
    extractor = make_extractor()
    results = [
        aep_scan(job, pool, extractor, stop_at_first=stop_at_first) for job in jobs
    ]
    assert kernel_shadow.divergences == []
    assert kernel_shadow.checked["scan"] == len(jobs)
    assert any(result is not None for result in results)


def test_paper_study_under_shadow_with_py312_sum(kernel_shadow, py312_sum):
    test_paper_study_under_shadow(kernel_shadow)


@pytest.mark.parametrize(
    "make_extractor, stop_at_first",
    [
        pytest.param(make, stop, id=name)
        for name, make, stop in STOCK
        if name in ("cost", "greedy_runtime")
    ],
)
def test_palette_batch_under_shadow_with_py312_sum(
    kernel_shadow, py312_sum, make_extractor, stop_at_first
):
    test_palette_batch_under_shadow(kernel_shadow, make_extractor, stop_at_first)


def run_broker(config: ServiceConfig, scheduler, arrivals, nodes: int) -> BrokerService:
    """Feed ``arrivals`` through a broker on a rolling horizon and drain."""
    broker = BrokerService(
        SlotPool(),
        config=config,
        scheduler=scheduler,
        horizon_source=RollingHorizonSource(
            EnvironmentConfig(node_count=nodes, seed=2013),
            HorizonConfig(lead=600.0, stride=600.0),
        ),
    )
    with broker:
        for when, job in arrivals:
            broker.advance_to(when)
            broker.submit(job)
            broker.pump()
        broker.drain()
    return broker


def test_over_subscribed_cheapest_broker_under_shadow(kernel_shadow):
    config = ServiceConfig(
        tenancy=TenancyConfig(ordering="drf", default_credit=200_000.0),
        resilience=ResilienceConfig(rate=0.002, seed=7, policy="repair"),
    )
    scheduler = BatchScheduler(
        search=CSA(max_alternatives=config.alternatives_per_job, amp_policy="cheapest"),
        criterion=config.criterion,
        alternatives_per_job=config.alternatives_per_job,
    )
    # The generator's budgets are tight for this fleet: most jobs are
    # refused at the door, and many admitted ones are never placed.
    arrivals = list(JobGenerator(seed=7).iter_arrivals(300, rate=0.5))
    broker = run_broker(config, scheduler, arrivals, nodes=30)
    assert broker.stats.rejected > broker.stats.admitted
    assert broker.stats.dropped > 0
    assert kernel_shadow.divergences == []
    assert kernel_shadow.checked["csa"] > 100


def test_first_policy_broker_under_shadow(kernel_shadow):
    config = ServiceConfig()
    arrivals = list(JobGenerator(seed=11).iter_arrivals(80, rate=0.5))
    run_broker(config, None, arrivals, nodes=24)
    assert kernel_shadow.divergences == []
    assert kernel_shadow.checked["csa"] > 50


def test_first_policy_static_pool_broker_under_shadow(kernel_shadow):
    # A generated pool and no horizon, like a federation shard: the pool
    # only loses free time between releases, so repeated searches of a
    # job that found nothing are answered by the pool's certificate.
    # The shadow re-runs those answers as the procedure too.
    pool = EnvironmentGenerator(
        EnvironmentConfig(node_count=24, seed=2013)
    ).generate().slot_pool()
    arrivals = list(JobGenerator(seed=2013).iter_arrivals(80, rate=2.0))
    before = vectorized.scan_counters["certified"]
    with BrokerService(pool, config=ServiceConfig()) as broker:
        for when, job in arrivals:
            broker.advance_to(when)
            broker.submit(job)
            broker.pump()
        broker.drain()
    assert kernel_shadow.divergences == []
    assert vectorized.scan_counters["certified"] - before > 30
    assert kernel_shadow.checked["csa"] > 100
