"""Do-nothing stand-ins for the cycle's two optional participants.

The broker cycle, the co-allocator and the resilience manager talk to a
tenancy participant (:class:`~repro.tenancy.TenancyManager`) and a
resilience participant
(:class:`~repro.service.resilience.ResilienceManager`) unconditionally.
When a layer is switched off its slot holds one of these stand-ins,
whose every answer is the one a caller without the layer would
hard-code — so a layer-off broker stays byte-identical while the
callers carry no ``is None`` branches.  Both are stateless; the module
singletons are what ``BrokerService.tenancy`` / ``.resilience`` map
back to ``None``.  They live on the service side so a tenancy-free
broker never imports :mod:`repro.tenancy`.
"""

from __future__ import annotations


class NoTenancy:
    """Tenancy off: FIFO batches, static prices, every commit funded."""

    price_multiplier = 1.0

    def drain_batch(self, queue, limit):
        return queue.pop_batch(limit)

    def live_request(self, request, multiplier):
        return request

    def admission_balance(self, tenant):
        return None

    def charge_commit(self, job, window, emitter, *, multiplier=None):
        return True

    def cycle_end_fields(self, lifecycle, pool):
        return {}

    def on_retired(self, job_id):
        pass

    def on_forfeit(self, job_id, leg_cost, emitter):
        pass

    def on_release(self, job_id, emitter):
        pass


class NoResilience:
    """Resilience off: no faults sampled, nothing ever waits on a retry."""

    pending_retries = 0

    def pending_ids(self):
        return frozenset()

    def next_wakeup(self):
        return None

    def release_due_retries(self, now):
        return 0

    def drain_pending(self):
        return []

    def sample_interval(self, start, end):
        return ()

    def on_scheduled(self, job_id, now):
        pass

    def forget(self, job_id):
        pass


NO_TENANCY = NoTenancy()
NO_RESILIENCE = NoResilience()
