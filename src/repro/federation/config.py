"""Configuration of the sharded broker federation.

One :class:`FederationConfig` describes the whole tier: how many shards
the node pool is split into, which placement policy the router uses, the
per-shard :class:`~repro.service.ServiceConfig` every shard broker runs
with, and whether the cross-shard co-allocation fallback is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.errors import ConfigurationError
from repro.service.config import ServiceConfig

#: Placement policies the router knows (see :mod:`repro.federation.router`).
POLICY_NAMES = ("hash", "least-loaded", "criterion")


@dataclass(frozen=True)
class FederationConfig:
    """Operational knobs of the federation tier.

    Parameters
    ----------
    shards:
        Number of per-shard brokers the node pool is partitioned across.
    policy:
        Placement policy name (one of :data:`POLICY_NAMES`): ``hash``
        (deterministic id-based spread), ``least-loaded`` (live queue
        depth + active windows), or ``criterion`` (cheapest-fit /
        earliest-fit estimate under the service's criterion).
    service:
        The configuration every shard broker runs with.  One shared
        config keeps the shards behaviourally identical, which is what
        makes the 1-shard federation bit-compatible with a single broker.
    coallocation:
        Enable the cross-shard co-allocation fallback: when every shard
        rejects a job for capacity (too few nodes) or budget, a combined
        window is searched over the union of the live shard pools and
        committed leg-by-leg with rollback on failure.
    """

    shards: int = 4
    policy: str = "hash"
    service: ServiceConfig = field(default_factory=ServiceConfig)
    coallocation: bool = True

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown placement policy {self.policy!r}; "
                f"choose one of {', '.join(POLICY_NAMES)}"
            )
