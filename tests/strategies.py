"""Ulp-adversarial slot pools: the hypothesis strategy of the fit tests.

"A leg fits from t" has one float form in the package, ``min(end,
deadline) - r >= t - eps`` (``repro.model.slot.fits_from``).  Its real
twin has other spellings (``end - t >= r - eps``, ``t + r <= end +
eps``, ...), and they disagree by a few ulps exactly where this
strategy draws:

* runtimes ``10**3`` to ``10**9`` times the window start;
* slot ends within a few ulps of ``start + runtime`` — for the slot's
  own start or for the anchor, a later start that node 0 always has —
  and of the deadline; where the spellings disagree on an end nearby,
  often that end;
* on half the draws every time offset by ``10**9``, where one ulp of a
  start exceeds ``eps``.

A scan, check or cut that spells the test differently from the others
fails on these pools; on generated environments it almost never does.

``adversarial_cases()`` draws a :class:`Case`: the slots and a request
(with or without a deadline and a budget).  Node performances of 1,
10**3 and 10**6 give pools slow legs that sit on the boundary and fast
partners that fit anywhere.  Tests run it under :data:`ADVERSARIAL`
(derandomized, no example database, no deadline), so tier-1 sees the
same examples on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.model import ResourceRequest, Slot, SlotPool
from repro.model.slot import TIME_EPSILON

from tests.conftest import make_node

#: The settings every adversarial-strategy test runs under.
ADVERSARIAL = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Slot-end offsets, in ulps, from the boundary the end is drawn near.
MAX_ULPS = 8

PERFORMANCES = (1.0, 1.0, 1e3, 1e6)
PRICES = (1e-9, 1e-6, 1e-3, 1.0)


@dataclass(frozen=True)
class Case:
    slots: tuple[Slot, ...]
    request: ResourceRequest

    def pool(self) -> SlotPool:
        """A fresh pool of the case's slots."""
        return SlotPool.from_slots(self.slots)


#: Regression inputs, kept as explicit examples of the strategy.  Node
#: 0's slot passes ``end - start >= runtime - eps`` (the scans' old insert
#: test) while its last start ``end - runtime`` is below ``start - eps``
#: and ``start + runtime`` overhangs ``end + eps`` (the cuts' old test):
#: searches returned a window here that every commit refused.
EDGE_OF_COMMIT = Case(
    slots=(
        Slot(make_node(1, performance=1e9), 0.0, 1e8),
        Slot(make_node(0, performance=1.0), 8716.748794040448, 1051847.7680218914),
    ),
    request=ResourceRequest(node_count=2, reservation_time=1043131.019227852),
)
#: A runtime far above the start: the scans inserted node 0 by the old
#: test and expired it at once by its last start (expired on arrival).
#: It is the cheapest node, so any scan keeping it alive puts it in a
#: cost-driven window.
EXPIRED_ON_ARRIVAL = Case(
    slots=(
        Slot(
            make_node(0, performance=1.0, price=1e-13),
            0.8800301687734118,
            1522731.6770924227,
        ),
        Slot(make_node(1, performance=1e6, price=1e-6), 1.0, 1e7),
        Slot(make_node(2, performance=1e6, price=1e-6), 2.0, 1e7),
    ),
    request=ResourceRequest(node_count=2, reservation_time=1522730.797062255),
)


def ulps_from(value: float, steps: int) -> float:
    """``value`` moved ``steps`` ulps up (or down, when negative)."""
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, direction)
    return value


def disputed(start: float, runtime: float) -> list[float]:
    """The ends ``x`` within 10 ulps of ``start + runtime - eps`` at which
    spellings of "``runtime`` fits from ``start`` before ``x``" disagree:
    ``x - runtime >= start - eps`` (the package's), ``x - start >=
    runtime - eps`` and ``start + runtime <= x + eps``.  Often empty."""
    x = ulps_from((start + runtime) - TIME_EPSILON, -10)
    found = []
    for _ in range(21):
        verdicts = {
            x - runtime >= start - TIME_EPSILON,
            x - start >= runtime - TIME_EPSILON,
            start + runtime <= x + TIME_EPSILON,
        }
        if len(verdicts) > 1:
            found.append(x)
        x = math.nextafter(x, math.inf)
    return found


@st.composite
def boundary(draw, start: float, runtime: float) -> float:
    """A slot end (or deadline) on the fit boundary of ``runtime`` from
    ``start``: a disputed end when one exists and is drawn, else one
    within a few ulps of ``start + runtime``, or of that less ``eps``."""
    ends = disputed(start, runtime)
    if ends and draw(st.booleans()):
        return draw(st.sampled_from(ends))
    slack = draw(st.sampled_from((0.0, TIME_EPSILON)))
    return ulps_from(start + runtime - slack, draw(st.integers(-MAX_ULPS, MAX_ULPS)))


@st.composite
def adversarial_cases(draw, max_nodes: int = 7) -> Case:
    """A pool of one or two slots per node and a request whose legs sit
    on the float boundary of the fit test (see the module docstring)."""
    base = draw(st.sampled_from((0.0, 1e9)))
    anchor = draw(st.floats(min_value=0.25, max_value=4.0))
    reservation = anchor * 10.0 ** draw(st.floats(min_value=3.0, max_value=9.0))
    node_count = draw(st.integers(min_value=1, max_value=3))
    ulps = st.integers(min_value=-MAX_ULPS, max_value=MAX_ULPS)
    deadline: Optional[float] = None
    if draw(st.booleans()):
        deadline = draw(boundary(base + anchor, reservation))
    request = ResourceRequest(
        node_count=node_count, reservation_time=reservation, deadline=deadline
    )
    slots = []
    for node_id in range(draw(st.integers(min_value=node_count, max_value=max_nodes))):
        node = make_node(
            node_id, draw(st.sampled_from(PERFORMANCES)), draw(st.sampled_from(PRICES))
        )
        runtime = request.task_runtime_on(node)
        # Node 0 starts at the anchor, so the anchor is a step.
        start = base + anchor
        if node_id:
            start = base + draw(
                st.sampled_from((anchor, 0.0, 1.0, 2.0))
                | st.floats(min_value=0.0, max_value=4.0)
            )
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            kind = draw(st.sampled_from(("boundary", "anchored", "anchored", "deadline", "long")))
            if kind == "anchored" and start < base + anchor:
                # On the boundary for a later window start: the anchor,
                # which other slots of the pool are drawn to start at.
                end = draw(boundary(base + anchor, runtime))
            elif kind in ("boundary", "anchored"):
                end = draw(boundary(start, runtime))
            elif kind == "deadline" and deadline is not None:
                end = ulps_from(deadline, draw(ulps))
            else:
                end = start + 3.0 * runtime + 1.0
            if not end - start > TIME_EPSILON:
                break
            slots.append(Slot(node, start, end))
            start = end + draw(st.sampled_from((1.0, 1e-3 * runtime + 1.0)))
    # No budget, the cost of the n cheapest legs (wherever they sit), or
    # half as much again.
    budget_share = draw(st.sampled_from((None, 0.0, 0.5)))
    if budget_share is not None and slots:
        costs = sorted(slot.node.usage_cost(request.task_runtime_on(slot.node)) for slot in slots)
        request = ResourceRequest(
            node_count=node_count,
            reservation_time=reservation,
            deadline=deadline,
            budget=sum(costs[:node_count]) * (1.0 + budget_share),
        )
    return Case(slots=tuple(slots), request=request)
