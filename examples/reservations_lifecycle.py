"""Advance reservations: book, swap and withdraw co-allocations.

The grid model behind the paper co-allocates via *advance reservations* —
a selected window is booked against the published slots and can later be
withdrawn or swapped.  The slot pool is the reservation book; this
example walks the lifecycle with the same three calls the broker makes:

1. select an earliest-start window and book it
   (:meth:`~repro.model.SlotPool.commit_window`, all-or-nothing);
2. a better (cheaper) offer appears — swap: release the old window, commit
   the new one (what ``JobLifecycle.replace`` and the resilience repair
   do for a running job);
3. another user tries to book the same spans — rejected, pool untouched;
4. withdraw (:meth:`~repro.model.SlotPool.release`) and verify the
   capacity returns to the published slots.

Run:  python examples/reservations_lifecycle.py
"""

from repro import (
    AMP,
    EnvironmentConfig,
    EnvironmentGenerator,
    Job,
    MinCost,
    ResourceRequest,
)
from repro.model import AllocationError


def main() -> None:
    pool = EnvironmentGenerator(
        EnvironmentConfig(node_count=40, seed=77)
    ).generate().slot_pool()
    job = Job(
        "user-job", ResourceRequest(node_count=4, reservation_time=120.0, budget=1400.0)
    )

    free_initially = pool.total_free_time()
    print(f"free node-time before any booking: {free_initially:.0f}")

    # 1. Book the earliest window.
    booked = AMP().select(job, pool)
    pool.commit_window(booked)
    print(
        f"\nbooked: start {booked.start:.1f}, cost {booked.total_cost:.1f}, "
        f"nodes {booked.nodes()}"
    )
    print(f"free node-time now: {pool.total_free_time():.0f}")

    # 2. A cheaper window exists elsewhere in the interval -> swap.  The
    #    search runs on a copy with the old spans returned, so the new
    #    window may reuse them.
    offer = pool.copy()
    offer.release(booked)
    cheaper = MinCost().select(job, offer)
    if cheaper is not None and cheaper.total_cost < booked.total_cost:
        pool.release(booked)
        pool.commit_window(cheaper)
        print(
            f"swapped: start {cheaper.start:.1f}, cost {cheaper.total_cost:.1f} "
            f"(saved {booked.total_cost - cheaper.total_cost:.1f})"
        )
        booked = cheaper

    # 3. A conflicting booking is rejected whole.
    free_before_rival = pool.total_free_time()
    try:
        pool.commit_window(booked)
    except AllocationError as error:
        print(f"\nconflicting booking rejected: {error}")
    assert pool.total_free_time() == free_before_rival

    # 4. Withdraw: capacity returns exactly.
    pool.release(booked)
    free_after = pool.total_free_time()
    print(
        f"\nwithdrawn; free node-time restored: {free_after:.0f} "
        f"(initial {free_initially:.0f})"
    )
    assert abs(free_after - free_initially) < 1e-6


if __name__ == "__main__":
    main()
