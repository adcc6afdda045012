"""Live resilience: slot revocation, window repair and retry policies.

The broker's answer to the paper's *non-dedicated* environment: local
jobs keep arriving on the nodes after windows are committed, so the
service must survive losing reservations it already promised.  The layer
is strictly additive — ``ServiceConfig.resilience = None`` (the default)
leaves every broker code path and trace byte-identical to before.

* :class:`RevocationInjector` — deterministic per-interval sampling of
  local-job arrivals on the nodes hosting committed legs (spawned
  ``SeedSequence`` streams, shared calibration with the offline replay).
* :class:`RecoveryPolicy` and its implementations
  (:class:`RepairPolicy`, :class:`ReplanPolicy`, :class:`AbandonPolicy`)
  — pure deciders mapping a :class:`RevocationContext` to an action.
* :class:`ResilienceManager` — executes the actions: in-place repairs
  via the fixed-start search, backoff retry buffering, forfeit/release
  accounting, REVOKED/REPAIRED/REPLANNED/ABANDONED events.
"""

# Import order matters: config/injector/policies touch only core, model
# and execution modules; manager is the first to pull in repro.service
# submodules (which may initialise the repro.service package, which in
# turn re-imports the three modules above from this partially initialised
# package).  Keeping the leaf modules first makes every entry point —
# ``import repro.service``, ``import repro.service.resilience`` or a
# direct submodule import — resolve without a cycle.
from repro.service.resilience.config import POLICY_NAMES, ResilienceConfig
from repro.service.resilience.injector import NodePreemption, RevocationInjector
from repro.service.resilience.policies import (
    POLICIES,
    AbandonAction,
    AbandonPolicy,
    RecoveryAction,
    RecoveryPolicy,
    RepairAction,
    RepairPolicy,
    ReplanAction,
    ReplanPolicy,
    RevocationContext,
)
from repro.service.resilience.manager import ResilienceManager

__all__ = [
    "AbandonAction",
    "AbandonPolicy",
    "NodePreemption",
    "POLICIES",
    "POLICY_NAMES",
    "RecoveryAction",
    "RecoveryPolicy",
    "RepairAction",
    "RepairPolicy",
    "ReplanAction",
    "ReplanPolicy",
    "ResilienceConfig",
    "ResilienceManager",
    "RevocationContext",
    "RevocationInjector",
]
