"""Disturbance models for non-dedicated resources.

The paper's environment is *non-dedicated*: local and high-priority jobs
own the nodes, and the broker only reserves the published gaps.  Between
the moment a window is committed and the moment it runs, more local work
can arrive and preempt the reservation.  The paper factors this risk out
of its experiments (the slot lists are snapshots), but any deployment of
the algorithms has to live with it — so the execution simulator models it
explicitly, and a benchmark quantifies how each selection criterion's
windows degrade under it.

A disturbance model samples, per node, a set of preemption events: local
jobs that arrive at random times and suspend whatever reservation is
running (suspend/resume semantics — the task loses the preempted time and
finishes late).

Sampling has one procedure, written once: per node, a Poisson count,
then an (arrival, length) pair of uniforms per event.
:func:`sample_preemption_schedule` replays it on arrays — the doubles
come from ``rng.random`` in chunks and every node's count is tested at
once — and consumes exactly the doubles the scalar calls
(``rng.poisson``, ``rng.uniform``) would, so a generator shared with
other draws ends in the same state either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.model.errors import ConfigurationError

#: The paper-scale disturbance intensity: expected local-job arrivals per
#: node per time unit.  Over the base scheduling interval of 600 units
#: this is ~1.2 local arrivals per node — the regime the robustness study
#: and the live resilience benchmark both probe.
PAPER_DISTURBANCE_RATE = 0.002

#: Uniform bounds of a local job's length; the floor matches the paper's
#: minimum local-job length of 10.
PAPER_LOCAL_JOB_LENGTH_RANGE = (10.0, 40.0)

#: ``Generator.poisson`` multiplies uniforms until their product is at or
#: below ``exp(-lam)`` while ``lam`` is under this; from it on, numpy
#: switches to a rejection sampler that is not replayed here.
_POISSON_PRODUCT_MAX = 10.0


@dataclass(frozen=True)
class Preemption:
    """One local-job arrival on a node: suspends work for ``length``."""

    arrival: float
    length: float


@dataclass(frozen=True)
class PoissonDisturbances:
    """Poisson local-job arrivals with uniformly distributed lengths.

    Parameters
    ----------
    rate:
        Expected arrivals per node per time unit.  The paper's base
        interval is 600 units, so ``rate=0.001`` means ~0.6 local
        arrivals per node per cycle.
    length_range:
        Uniform bounds of a local job's length; the default floor matches
        the paper's minimum local-job length of 10.
    """

    rate: float = 0.001
    length_range: tuple[float, float] = (10.0, 40.0)

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ConfigurationError(f"rate must be >= 0, got {self.rate}")
        low, high = self.length_range
        if low <= 0 or high < low:
            raise ConfigurationError(f"invalid length_range {self.length_range}")

    def sample(
        self, horizon: float, rng: np.random.Generator
    ) -> list[Preemption]:
        """Preemption events on one node over ``[0, horizon)``, by arrival.

        The one-node case of :func:`sample_preemption_schedule`.
        """
        return sample_preemption_schedule(self, (0,), horizon, rng)[0]


def paper_disturbance_model(
    rate: float = PAPER_DISTURBANCE_RATE,
    length_range: tuple[float, float] = PAPER_LOCAL_JOB_LENGTH_RANGE,
) -> PoissonDisturbances:
    """The disturbance model at the paper-scale calibration.

    Both the offline robustness study (``benchmarks/
    test_robustness_disturbances.py``) and the live resilience layer
    (:mod:`repro.service.resilience`) build their models here, so the
    two never drift apart on rate or local-job lengths.
    """
    return PoissonDisturbances(rate=rate, length_range=length_range)


def sample_preemption_schedule(
    model: PoissonDisturbances,
    node_ids: Iterable[int],
    horizon: float,
    rng: np.random.Generator,
    offset: float = 0.0,
) -> dict[int, list[Preemption]]:
    """Per-node preemption events over ``[offset, offset + horizon)``.

    The single shared sampling path: the execution replay
    (:func:`repro.execution.replay.replay_execution`) and the broker's
    live :class:`~repro.service.resilience.RevocationInjector` both draw
    their local-job arrivals through this function, one node at a time in
    the order ``node_ids`` is given, so offline studies and online
    injection agree on the statistics by construction.  Arrivals are
    shifted by ``offset`` (the replay samples from 0, the injector from
    the start of the advanced interval).  Every node of ``node_ids`` has
    a list, sorted by arrival; most are empty.

    A node's events are what the scalar procedure draws for it, node
    after node on one stream: ``rng.poisson(rate * horizon)`` events,
    each an arrival ``rng.uniform(0, horizon)`` then a length
    ``rng.uniform(*length_range)``.  This function replays it on arrays,
    with an exact consumption contract — it reads exactly the doubles
    those calls would, so ``rng`` ends in the same state:

    * Doubles come from ``rng.random(k)``, with ``k`` a lower bound of
      what is still needed: one per node not yet counted, plus, for the
      node being drawn, its pending Poisson factor and two per event.
    * For ``lam = rate * horizon < 10`` numpy's Poisson count is the
      number of running products of uniforms above ``exp(-lam)``, so one
      array comparison of every node's first double finds the nodes with
      events, and only those are walked in Python.  An arrival is
      ``horizon * u`` and a length ``low + (high - low) * u``, the
      operations ``Generator.uniform`` performs.
    * ``lam >= 10`` (numpy's rejection branch) keeps the scalar calls.
    * A zero rate, a non-positive horizon, no nodes, or ``lam`` that
      underflows to 0 draw nothing.
    """
    nodes = list(node_ids)
    schedule: dict[int, list[Preemption]] = {node_id: [] for node_id in nodes}
    lam = model.rate * horizon
    # numpy's Poisson draws nothing for lam == 0, which a positive rate
    # can underflow to.
    if horizon <= 0 or model.rate == 0 or lam == 0 or not nodes:
        return schedule
    low, high = model.length_range
    if lam >= _POISSON_PRODUCT_MAX:
        for node_id in nodes:
            count = int(rng.poisson(lam))
            schedule[node_id] = _events(
                [
                    (float(rng.uniform(0.0, horizon)), float(rng.uniform(low, high)))
                    for _ in range(count)
                ],
                offset,
            )
        return schedule

    threshold = math.exp(-lam)
    span = high - low
    total = len(nodes)
    chunk = rng.random(total)
    read = 0  # doubles of ``chunk`` consumed
    counted = 0  # nodes whose count is known

    def draw(need: int) -> float:
        """The next double; ``need`` bounds what is left to read, it included."""
        nonlocal chunk, read
        if read == len(chunk):
            chunk = rng.random(need)
            read = 0
        read += 1
        return float(chunk[read - 1])

    while counted < total:
        if read == len(chunk):
            chunk = rng.random(total - counted)
            read = 0
        # The unread doubles are the first Poisson factors of the next
        # nodes, one each: a node whose factor is <= exp(-lam) counts 0.
        above = np.flatnonzero(chunk[read:] > threshold)
        if not len(above):
            counted += len(chunk) - read
            read = len(chunk)
            continue
        skip = int(above[0]) + 1
        counted += skip
        read += skip
        rest = total - counted
        product = float(chunk[read - 1])
        count = 0
        while product > threshold:
            count += 1
            product *= draw(1 + 2 * count + rest)
        pairs = []
        for left in range(count, 0, -1):
            arrival = horizon * draw(2 * left + rest)
            pairs.append((arrival, low + span * draw(2 * left - 1 + rest)))
        schedule[nodes[counted - 1]] = _events(pairs, offset)
    return schedule


def _events(pairs: list[tuple[float, float]], offset: float) -> list[Preemption]:
    """Preemptions from ``(arrival, length)`` draws, sorted by arrival
    (stable: ties keep draw order), then shifted by ``offset``."""
    pairs.sort(key=lambda pair: pair[0])
    return [
        Preemption(arrival=arrival + offset, length=length)
        for arrival, length in pairs
    ]
