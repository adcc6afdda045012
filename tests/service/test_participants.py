"""The do-nothing stand-ins for the cycle's optional participants.

They must answer every question the serving stack asks its tenancy and
resilience participants (so the callers need no ``is None`` fork), give
the layer-off answers, stay invisible behind the public ``tenancy`` /
``resilience`` properties, and keep ``repro.tenancy`` out of a
tenancy-free broker's import graph.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.model import Job, ResourceRequest, SlotPool
from repro.service import BrokerService, ServiceConfig
from repro.service.participants import (
    NO_RESILIENCE,
    NO_TENANCY,
    NoResilience,
    NoTenancy,
)
from repro.service.queueing import BoundedJobQueue
from repro.service.resilience import ResilienceManager
from repro.tenancy import TenancyManager

from tests.conftest import make_slot


def public_names(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("_")}


class TestStandInsCoverTheRealParticipants:
    def test_every_tenancy_stand_in_member_exists_on_the_manager(self):
        missing = public_names(NoTenancy) - set(dir(TenancyManager))
        assert not missing, f"TenancyManager lacks {sorted(missing)}"

    def test_every_resilience_stand_in_member_exists_on_the_manager(self):
        missing = public_names(NoResilience) - set(dir(ResilienceManager))
        assert not missing, f"ResilienceManager lacks {sorted(missing)}"


class TestLayerOffAnswers:
    def test_no_tenancy_is_fifo_static_priced_and_free(self):
        queue = BoundedJobQueue(8)
        request = ResourceRequest(node_count=2, reservation_time=20.0, budget=50.0)
        for index in range(3):
            queue.push(Job(f"j{index}", request), 0.0)
        batch = NO_TENANCY.drain_batch(queue, 2)
        assert [item.job.job_id for item in batch] == ["j0", "j1"]
        assert queue.depth == 1
        assert NO_TENANCY.price_multiplier == 1.0
        assert NO_TENANCY.live_request(request, 1.0) is request
        assert NO_TENANCY.admission_balance("anyone") is None
        assert NO_TENANCY.charge_commit(batch[0].job, None, None) is True
        assert NO_TENANCY.cycle_end_fields(None, None) == {}

    def test_no_resilience_never_has_anything_pending(self):
        assert NO_RESILIENCE.pending_retries == 0
        assert not NO_RESILIENCE.pending_ids()
        assert NO_RESILIENCE.next_wakeup() is None
        assert NO_RESILIENCE.release_due_retries(10.0) == 0
        assert NO_RESILIENCE.drain_pending() == []
        assert list(NO_RESILIENCE.sample_interval(0.0, 100.0)) == []


class TestPublicSurfaceStillSaysNone:
    def test_layer_off_broker_reports_no_participants(self):
        pool = SlotPool.from_slots([make_slot(i, 0.0, 100.0) for i in range(4)])
        service = BrokerService(pool, config=ServiceConfig())
        assert service.tenancy is None
        assert service.resilience is None
        assert service.in_flight_ids() == set()
        assert service.is_idle


def test_importing_the_service_loads_no_tenancy_module():
    """``repro.tenancy`` is optional: the stand-in lives on the service
    side precisely so that a tenancy-free broker never imports it."""
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        "import sys, repro.service, repro.federation.coallocation\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.tenancy')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
