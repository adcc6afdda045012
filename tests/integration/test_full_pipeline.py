"""Cross-subsystem integration: the whole library in one narrative.

Generate an environment, archive and reload it (JSON), search alternatives
with CSA, choose by a composite criterion, book the window as an advance
reservation, replay the execution under disturbances, and account for
everything — asserting consistency at every subsystem boundary.
"""

import numpy as np
import pytest

from repro.analysis import fairness_of_assignments, render_gantt
from repro.core import CSA, Criterion, constrained_best, pareto_front
from repro.environment import EnvironmentConfig, EnvironmentGenerator
from repro.execution import PoissonDisturbances, replay_execution
from repro.io import environment_from_dict, environment_to_dict
from repro.model import Job, ResourceRequest


@pytest.fixture(scope="module")
def pipeline_state():
    # 1. Generate and archive the environment.
    original = EnvironmentGenerator(
        EnvironmentConfig(node_count=35, seed=2026)
    ).generate()
    environment = environment_from_dict(environment_to_dict(original))
    assert environment.slots() == original.slots()
    return environment


def test_full_pipeline(pipeline_state):
    environment = pipeline_state
    job = Job(
        "pipeline-job",
        ResourceRequest(node_count=4, reservation_time=120.0, budget=1400.0),
        owner="alice",
    )

    # 2. Alternatives via CSA on the published pool.
    pool = environment.slot_pool()
    alternatives = CSA().find_alternatives(job, pool)
    assert alternatives, "the base job must be schedulable on 35 nodes"
    for window in alternatives:
        window.validate(job.request)

    # 3. Composite choice: earliest finish among alternatives within a
    #    cost cap, and the pick must lie on the (finish, cost) front.
    cap = np.median([w.total_cost for w in alternatives])
    chosen = constrained_best(
        alternatives, Criterion.FINISH_TIME, {Criterion.COST: float(cap)}
    )
    assert chosen is not None
    front = pareto_front(alternatives, [Criterion.FINISH_TIME, Criterion.COST])
    assert any(chosen is member for member in front)

    # 4. Book it; the published free time shrinks by the processor time.
    free_before = pool.total_free_time()
    pool.commit_window(chosen)
    assert pool.total_free_time() == pytest.approx(
        free_before - chosen.processor_time
    )

    # 5. The Gantt view shows the reservation.
    chart = render_gantt(environment, [chosen], legend=False)
    assert "=" in chart

    # 6. Replay the booked schedule under disturbances.
    report = replay_execution(
        {job.job_id: chosen},
        PoissonDisturbances(rate=0.002),
        np.random.default_rng(9),
    )
    outcome = report.jobs[job.job_id]
    assert outcome.planned_finish == pytest.approx(chosen.finish)
    assert outcome.actual_finish >= outcome.planned_finish - 1e-9

    # 7. Fairness accounting sees the assignment.
    fairness = fairness_of_assignments([job], {job.job_id: chosen})
    assert fairness.owners["alice"].scheduled == 1
    assert fairness.service_fairness == 1.0

    # 8. Withdraw: the pool returns to its pre-booking state.
    pool.release(chosen)
    assert pool.total_free_time() == pytest.approx(free_before)


def test_pipeline_survives_reload_mid_flight(pipeline_state):
    # Booking on a reloaded clone must behave identically to the source.
    environment = pipeline_state
    clone = environment_from_dict(environment_to_dict(environment))
    job = Job(
        "clone-job", ResourceRequest(node_count=3, reservation_time=90.0, budget=900.0)
    )
    original_window = CSA().select(job, environment.slot_pool())
    clone_window = CSA().select(job, clone.slot_pool())
    assert original_window.start == pytest.approx(clone_window.start)
    assert original_window.total_cost == pytest.approx(clone_window.total_cost)
    assert original_window.nodes() == clone_window.nodes()
