"""``SlotPool.commit_window`` is a splice of each host's bucket.

The cut used to be ``remove(host)`` followed by one ``add`` per
remainder, with the certificate store put back when no remainder merged.
It now replaces the host's entry in place by its remainders — one store
deletion, one insertion each — because on the pool's shape a remainder
can touch nothing but its sibling.  The old sequence is kept here as the
oracle (:func:`commit_by_remove_and_add`), and the property compares
both on the ulp-adversarial pools of :mod:`tests.strategies`: the pool's
state, its one order, the certificates, and a refusal.

The windows are searched on the pool (MinCost) or built by hand on
hosts of distinct nodes, with reservations as short as ε/4 and starts
up to ε/2 before the latest host's start: the two remainders of a
reservation of at most ε merge back into the host, and a reservation
reaching up to ε past one end of its host leaves a remainder that
``Slot.split`` clamps into the host, so no cut adds free time.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import MinCost
from repro.model import Slot, SlotPool, Window, WindowSlot
from repro.model.errors import AllocationError
from repro.model.slot import TIME_EPSILON, fits_from, last_start
from repro.model.slotpool import COALESCE_GAP

from tests.conftest import make_node, pool_state
from tests.model.test_slotarrays import assert_one_order
from tests.strategies import ADVERSARIAL, Case, adversarial_cases

EPS = TIME_EPSILON
#: Reservation lengths of the hand-built legs, besides the node's runtime.
SHORT = (EPS / 4, EPS / 2, EPS, 2 * EPS)
#: Window starts relative to the latest host start.
SHIFTS = (-EPS / 2, 0.0, EPS / 2, 1.0)


def commit_by_remove_and_add(pool: SlotPool, window: Window) -> None:
    """The cut as a sequence of public edits: per leg, ``remove(host)``
    and one ``add`` per remainder.  The certificates survive exactly
    when every remainder lies inside its host and none merged — the cut
    then only removed free time."""
    pool.apply_floor()
    cuts = []
    for ws in window.slots:
        for slot in pool.by_node().get(ws.slot.node.node_id, ()):
            if slot.start - TIME_EPSILON <= window.start and fits_from(
                last_start(slot.end, ws.required_time), window.start
            ):
                cuts.append((slot, ws.required_time))
                break
        else:
            raise AllocationError("homeless leg")
    for host, required_time in cuts:
        pool.remove(host)
        remainders = host.split(window.start, required_time)
        kept = pool._certificates
        size = len(pool)
        for remainder in remainders:
            pool.add(remainder)
        inside = all(
            host.start <= rem.start and rem.end <= host.end for rem in remainders
        )
        if inside and len(pool) == size + len(remainders):
            pool._certificates = kept


def commit_outcome(pool: SlotPool, window: Window, commit) -> str:
    try:
        commit(pool, window)
    except AllocationError:
        return "refused"
    return "committed"


@st.composite
def hand_built(draw, pool: SlotPool, case: Case) -> Window:
    """One leg on a slot of each of one to three distinct nodes."""
    by_node = pool.by_node()
    nodes = draw(
        st.lists(st.sampled_from(sorted(by_node)), min_size=1, max_size=3, unique=True)
    )
    hosts = [draw(st.sampled_from(by_node[node_id])) for node_id in nodes]
    start = max(host.start for host in hosts) + draw(st.sampled_from(SHIFTS))
    legs = []
    for host in hosts:
        runtime = case.request.task_runtime_on(host.node)
        required = draw(st.sampled_from(SHORT + (runtime, host.end - start)))
        legs.append(WindowSlot(host, max(required, 0.0), 1.0))
    return Window(start=start, slots=tuple(legs))


@st.composite
def commits(draw):
    """A pool, a certificate on it, and up to three windows to commit in
    turn (a cycle's commits: later ones may cut earlier remainders)."""
    case = draw(adversarial_cases())
    pool = case.pool()
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        if not len(pool):
            break
        if draw(st.booleans()):
            window = MinCost().select(case.request, iter(pool.ordered()))
            if window is None:
                continue
        else:
            window = draw(hand_built(pool, case))
        windows.append(window)
    return pool, windows


def merge_back_case() -> tuple[SlotPool, list[Window]]:
    """Carving ``[2, 2 + ε/2)`` out of ``[0, 8)``: the remainders lie
    within the gap of each other and merge back into the host."""
    node = make_node(0)
    host = Slot(node, 0.0, 8.0)
    pool = SlotPool.from_slots([host, Slot(node, 9.0, 12.0)])
    return pool, [Window(start=2.0, slots=(WindowSlot(host, EPS / 2, 0.0),))]


def overhang_case() -> tuple[SlotPool, list[Window]]:
    """A reservation of ε/4 at ``1 - ε/2`` on a node free over ``[0, 1 -
    1.2ε)`` and ``[1, 8)``.  The first slot hosts it (the fit test's ε
    reaches past its end).  Unclamped, the left remainder ``[0, 1 -
    ε/2)`` would overhang its host, within the gap of ``[1, 8)``, and
    the two would merge; clamped, it is the host itself."""
    node = make_node(0)
    host = Slot(node, 0.0, 1.0 - 1.2 * EPS)
    pool = SlotPool.from_slots([host, Slot(node, 1.0, 8.0)])
    return pool, [Window(start=1.0 - EPS / 2, slots=(WindowSlot(host, EPS / 4, 0.0),))]


@ADVERSARIAL
@given(case=commits())
@example(case=merge_back_case())
@example(case=overhang_case())
def test_commit_equals_remove_then_add(case):
    pool, windows = case
    pool.certify(("probe",), 4)
    spliced, oracle = pool.copy(), pool.copy()
    for window in windows:
        assert commit_outcome(spliced, window, SlotPool.commit_window) == (
            commit_outcome(oracle, window, commit_by_remove_and_add)
        )
        assert pool_state(spliced) == pool_state(oracle)
        assert_one_order(spliced)
        assert spliced._certificates == oracle._certificates
        spliced.assert_disjoint_per_node()
    # The twins shared the store: the cuts copied it, never wrote it.
    assert pool._certificates == {("probe",): True}


def test_merge_back_is_a_gain():
    pool, [window] = merge_back_case()
    before = pool_state(pool)
    pool.certify(("probe",), 4)
    pool.commit_window(window)
    assert pool_state(pool) == before
    assert not pool.certified(("probe",))


def test_a_remainder_past_the_host_end_is_clamped_and_adds_no_time():
    pool, [window] = overhang_case()
    before = pool_state(pool)
    free = pool.total_free_time()
    pool.certify(("probe",), 4)
    pool.commit_window(window)
    assert [(slot.start, slot.end) for slot in pool] == [(0.0, 1.0 - 1.2 * EPS), (1.0, 8.0)]
    assert pool_state(pool) == before
    assert pool.total_free_time() == free
    assert pool.certified(("probe",))


def test_a_remainder_before_the_host_start_is_clamped_and_adds_no_time():
    """A reservation of ε/4 at ``1 - ε/2`` in ``[1, 8)``: unclamped, the
    right remainder ``[1 - ε/4, 8)`` would be longer than its host;
    clamped, it is the host, and a search proven empty stays empty."""
    host = Slot(make_node(0), 1.0, 8.0)
    pool = SlotPool.from_slots([host])
    pool.certify(("probe",), 4)
    pool.commit_window(
        Window(start=1.0 - EPS / 2, slots=(WindowSlot(host, EPS / 4, 0.0),))
    )
    [remainder] = pool.ordered()
    assert (remainder.start, remainder.end) == (host.start, host.end)
    assert pool.certified(("probe",))


@ADVERSARIAL
@given(case=commits())
@example(case=overhang_case())
def test_no_cut_adds_free_time(case):
    """Every slot a commit leaves lies inside a slot its node had before
    (remainders that merge back make their host again): no cut grows a
    slot or adds free time."""
    pool, windows = case
    for window in windows:
        before = {
            node_id: list(bucket) for node_id, bucket in pool.by_node().items()
        }
        free = pool.total_free_time()
        if commit_outcome(pool, window, SlotPool.commit_window) == "refused":
            continue
        for node_id, bucket in pool.by_node().items():
            for slot in bucket:
                assert any(
                    host.start <= slot.start and slot.end <= host.end
                    for host in before[node_id]
                ), (slot, before[node_id])
        assert pool.total_free_time() <= free


def test_carved_remainders_keep_the_certificates_and_the_gap():
    node = make_node(0)
    host = Slot(node, 0.0, 8.0)
    pool = SlotPool.from_slots([host, Slot(node, 9.0, 12.0)])
    pool.certify(("probe",), 4)
    generation = pool.generation
    pool.commit_window(Window(start=2.0, slots=(WindowSlot(host, 3.0, 0.0),)))
    spans = [(slot.start, slot.end) for slot in pool]
    assert spans == [(0.0, 2.0), (5.0, 8.0), (9.0, 12.0)]
    assert pool.certified(("probe",))
    # One deletion and two insertions, recorded as three edits.
    assert pool.generation == generation + 3
    assert spans[1][0] - spans[0][1] > COALESCE_GAP
