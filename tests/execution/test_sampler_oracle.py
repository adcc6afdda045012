"""The array-drawn preemption sampler against the scalar procedure.

:func:`repro.execution.sample_preemption_schedule` replays, on arrays, a
procedure that is easiest to state with scalar generator calls: per node
in the given order, ``rng.poisson(rate * horizon)`` events, each an
arrival ``rng.uniform(0, horizon)`` then a length
``rng.uniform(*length_range)``, sorted by arrival and shifted by the
offset.  That procedure is kept here as the oracle.  Both must return
equal schedules (exact floats) *and* leave the generator in the same
state: the offline replay shares one generator across everything it
draws, so consuming one double more or less would shift every later
draw.  numpy documents no stream equivalence between scalar and array
calls, so this file is also what notices a numpy release that changes
``Generator.poisson`` or ``Generator.uniform``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.execution import PoissonDisturbances, Preemption, sample_preemption_schedule


def scalar_schedule(model, node_ids, horizon, rng, offset=0.0):
    """The oracle: one scalar Poisson count and two uniforms per event."""
    schedule = {}
    for node_id in node_ids:
        events = []
        if horizon > 0 and model.rate != 0:
            count = int(rng.poisson(model.rate * horizon))
            events = [
                Preemption(
                    arrival=float(rng.uniform(0.0, horizon)),
                    length=float(rng.uniform(*model.length_range)),
                )
                for _ in range(count)
            ]
            events.sort(key=lambda event: event.arrival)
        if offset:
            events = [
                Preemption(arrival=event.arrival + offset, length=event.length)
                for event in events
            ]
        schedule[node_id] = events
    return schedule


def assert_same_draws(model, node_ids, horizon, seed, offset=0.0, warmup=0):
    """Schedules, generator states and the next draw all agree."""
    fast_rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    # A shared generator: whatever was drawn before must not matter.
    fast_rng.random(warmup)
    oracle_rng.random(warmup)
    fast = sample_preemption_schedule(model, node_ids, horizon, fast_rng, offset)
    expected = scalar_schedule(model, node_ids, horizon, oracle_rng, offset)
    assert fast == expected
    assert list(fast) == list(expected)
    assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert fast_rng.random() == oracle_rng.random()
    return fast


def random_case(rng):
    """One (model, node ids, horizon, offset) draw spanning every branch."""
    kind = rng.choice(5, p=[0.45, 0.25, 0.1, 0.05, 0.15])
    if kind == 0:  # the live regime: a few thousandths of an arrival per node
        rate, horizon = float(rng.uniform(1e-4, 5e-3)), float(rng.uniform(0.1, 3.0))
    elif kind == 1:  # the offline regime: about one arrival per node
        rate, horizon = float(rng.uniform(1e-4, 5e-3)), float(rng.uniform(100.0, 700.0))
    elif kind == 2:  # dense: several events per node, lam up to just under 10
        horizon = float(rng.uniform(10.0, 100.0))
        rate = float(rng.uniform(1.0, 9.99)) / horizon
    elif kind == 3:  # numpy's rejection branch
        horizon = float(rng.uniform(10.0, 100.0))
        rate = float(rng.uniform(10.0, 14.0)) / horizon
    else:  # anything, including an empty or negative horizon
        rate, horizon = float(rng.exponential(0.05)), float(rng.uniform(-5.0, 60.0))
    low = float(rng.uniform(0.5, 20.0))
    model = PoissonDisturbances(
        rate=rate, length_range=(low, low + float(rng.uniform(0.0, 30.0)))
    )
    size = int(rng.integers(0, 25))
    node_ids = [int(node) for node in rng.choice(1000, size=size, replace=False)]
    offset = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.0, 1e4))
    return model, node_ids, horizon, offset


def test_ten_thousand_random_cases_match_the_scalar_procedure():
    rng = np.random.default_rng(2013)
    events = dense_nodes = 0
    for case in range(10_000):
        model, node_ids, horizon, offset = random_case(rng)
        schedule = assert_same_draws(
            model, node_ids, horizon, seed=case, offset=offset, warmup=case % 3
        )
        events += sum(len(found) for found in schedule.values())
        dense_nodes += sum(len(found) > 1 for found in schedule.values())
    # Not vacuous: arrivals were drawn, often several on one node.
    assert events > 50_000 and dense_nodes > 10_000


@pytest.mark.parametrize("lam", [9.999, 10.0, 10.5, 60.0])
def test_around_numpys_switch_to_the_rejection_sampler(lam):
    model = PoissonDisturbances(rate=lam / 100.0, length_range=(10.0, 40.0))
    for seed in range(20):
        schedule = assert_same_draws(model, list(range(30)), 100.0, seed, offset=7.5)
        assert sum(map(len, schedule.values())) > 100


@pytest.mark.parametrize("factors", [1, 2])
def test_a_product_equal_to_exp_minus_lam_ends_the_count(factors):
    # numpy counts while the running product of uniforms is strictly
    # above exp(-lam): pick lam so that the product of the first
    # ``factors`` doubles drawn equals it exactly.
    product = 1.0
    for factor in np.random.default_rng(4).random(factors):
        product *= float(factor)
    lam = -math.log(product)
    for _ in range(100):
        if math.exp(-lam) == product:
            break
        lam = math.nextafter(lam, math.inf if math.exp(-lam) > product else 0.0)
    assert math.exp(-lam) == product
    schedule = assert_same_draws(PoissonDisturbances(rate=lam), [0, 1], 1.0, seed=4)
    assert len(schedule[0]) == factors - 1


def test_lam_underflowing_to_zero_draws_nothing():
    model = PoissonDisturbances(rate=5e-324, length_range=(10.0, 40.0))
    assert model.rate * 0.25 == 0.0
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    schedule = sample_preemption_schedule(model, [3, 1, 2], 0.25, rng)
    assert schedule == {3: [], 1: [], 2: []}
    assert rng.bit_generator.state == state
    assert_same_draws(model, [3, 1, 2], 0.25, seed=5)


@pytest.mark.parametrize(
    "rate, node_ids, horizon",
    [(0.0, [1, 2, 3], 100.0), (0.01, [], 100.0), (0.01, [1, 2], 0.0), (0.01, [4], -3.0)],
)
def test_provably_empty_calls_consume_nothing(rate, node_ids, horizon):
    model = PoissonDisturbances(rate=rate)
    rng = np.random.default_rng(9)
    state = rng.bit_generator.state
    schedule = sample_preemption_schedule(model, node_ids, horizon, rng)
    assert schedule == {node_id: [] for node_id in node_ids}
    assert rng.bit_generator.state == state
    assert_same_draws(model, node_ids, horizon, seed=9)


def test_node_order_is_the_draw_order():
    # Each node reads its own stretch of the stream: reordering the node
    # list reassigns the draws, exactly as the scalar procedure does.
    model = PoissonDisturbances(rate=0.02, length_range=(1.0, 2.0))
    forward = assert_same_draws(model, [1, 2, 3, 4], 100.0, seed=3)
    backward = assert_same_draws(model, [4, 3, 2, 1], 100.0, seed=3)
    assert list(backward) == [4, 3, 2, 1]
    assert forward[1] == backward[4] and forward[4] == backward[1]


def test_one_node_sample_is_the_schedule_of_one_node():
    model = PoissonDisturbances(rate=0.05, length_range=(5.0, 10.0))
    for seed in range(50):
        sampled_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        events = model.sample(300.0, sampled_rng)
        assert events == scalar_schedule(model, [0], 300.0, oracle_rng)[0]
        assert sampled_rng.bit_generator.state == oracle_rng.bit_generator.state
