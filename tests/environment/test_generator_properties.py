"""Hypothesis property tests for the environment generator.

Random configurations, checked against the generator's contract: node
attributes respect the configured ranges, timelines stay inside the
interval, published slots are exactly the timelines' gaps, and the whole
generation is a deterministic function of the seed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.environment import EnvironmentConfig, EnvironmentGenerator, LoadModel
from repro.environment.pricing import MarketPricing


@st.composite
def configs(draw):
    node_count = draw(st.integers(min_value=1, max_value=25))
    perf_low = draw(st.integers(min_value=1, max_value=8))
    perf_high = draw(st.integers(min_value=perf_low, max_value=12))
    start = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    length = draw(st.floats(min_value=50.0, max_value=1200.0, allow_nan=False))
    load_low = draw(st.floats(min_value=0.0, max_value=0.4, allow_nan=False))
    load_high = draw(st.floats(min_value=load_low, max_value=0.8, allow_nan=False))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return EnvironmentConfig(
        node_count=node_count,
        interval_start=start,
        interval_end=start + length,
        performance_range=(perf_low, perf_high),
        pricing=MarketPricing(),
        load=LoadModel(load_range=(load_low, load_high)),
        seed=seed,
    )


@given(config=configs())
@settings(max_examples=60, deadline=None)
def test_nodes_respect_configuration(config):
    environment = EnvironmentGenerator(config).generate()
    assert len(environment.nodes) == config.node_count
    low, high = config.performance_range
    for node in environment.nodes:
        assert low <= node.performance <= high
        assert node.performance == int(node.performance)
        assert node.price_per_unit > 0


@given(config=configs())
@settings(max_examples=60, deadline=None)
def test_timelines_partition_the_interval(config):
    environment = EnvironmentGenerator(config).generate()
    for timeline in environment.timelines.values():
        busy = timeline.busy_time()
        free = sum(end - start for start, end in timeline.free_intervals())
        interval = config.interval_end - config.interval_start
        assert busy + free == __import__("pytest").approx(interval, rel=1e-6)
        for start, end in timeline.busy_intervals:
            assert config.interval_start - 1e-9 <= start < end
            assert end <= config.interval_end + 1e-9


@given(config=configs())
@settings(max_examples=60, deadline=None)
def test_slots_match_timelines(config):
    environment = EnvironmentGenerator(config).generate()
    slots = environment.slots()
    starts = [slot.start for slot in slots]
    assert starts == sorted(starts)
    expected = sum(
        len(timeline.free_slots()) for timeline in environment.timelines.values()
    )
    assert len(slots) == expected
    pool = environment.slot_pool()
    pool.assert_disjoint_per_node()


@given(config=configs())
@settings(max_examples=30, deadline=None)
def test_generation_is_a_function_of_the_seed(config):
    env_a = EnvironmentGenerator(config).generate()
    env_b = EnvironmentGenerator(config).generate()
    assert env_a.nodes == env_b.nodes
    assert [t.busy_intervals for t in env_a.timelines.values()] == [
        t.busy_intervals for t in env_b.timelines.values()
    ]


@given(config=configs())
@settings(max_examples=40, deadline=None)
def test_utilization_within_the_configured_band(config):
    environment = EnvironmentGenerator(config).generate()
    low, high = config.load.load_range
    # A node may fall below the band when the drawn busy time cannot fit
    # one minimal local job; it must never exceed the band.
    for timeline in environment.timelines.values():
        assert timeline.utilization() <= high + 1e-6
