"""Configuration of the multi-tenant economics layer.

One :class:`TenancyConfig` switches the whole tenant/VO layer on: it
names the registered tenants (anything unknown auto-registers with the
defaults), selects the cycle-ordering policy (DRF or the legacy FIFO
draining), and parameterises the credit ledger and the utilization-
driven pricing loop.  ``ServiceConfig.tenancy is None`` — the default —
keeps every broker and federation code path, including the event
traces, byte-identical to a build without the subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.errors import ConfigurationError

#: Cycle-ordering policies: ``drf`` serves the tenant with the smallest
#: dominant share first (the Mesos sorter), ``fifo`` preserves the
#: legacy arrival-order batch draining (the baseline DRF is tested against).
ORDERING_NAMES = ("drf", "fifo")


@dataclass(frozen=True)
class TenantSpec:
    """One registered tenant: its credit endowment and DRF weight."""

    name: str
    credit: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be a non-empty string")
        if self.credit < 0:
            raise ConfigurationError(
                f"tenant credit must be >= 0, got {self.credit}"
            )
        if self.weight <= 0:
            raise ConfigurationError(
                f"tenant weight must be positive, got {self.weight}"
            )


@dataclass(frozen=True)
class TenancyConfig:
    """Parameters of the tenant registry, ledger, sorter and pricing.

    Parameters
    ----------
    tenants:
        Pre-registered tenants.  Jobs from owners not listed here
        auto-register with ``default_credit`` / ``default_weight`` on
        first contact, so a tenancy-enabled broker never refuses an
        unknown owner outright.
    default_credit:
        Credit endowment of auto-registered tenants.
    default_weight:
        DRF weight of auto-registered tenants (higher = entitled to a
        larger dominant share before yielding the cycle to others).
    ordering:
        ``"drf"`` drains each cycle's batch by smallest dominant share
        of committed node-seconds (the Mesos sorter port);  ``"fifo"``
        keeps arrival-order draining — same credit accounting, legacy
        ordering — the baseline DRF must beat on fairness.
    enforce_credits:
        When ``True``, submissions whose tenant cannot afford the
        cheapest feasible window are rejected (``INSUFFICIENT_CREDIT``)
        and commits that would overdraw the account are deferred
        instead of executed.  ``False`` keeps the ledger as a pure
        observer (accounts may not go negative — unaffordable commits
        still defer — but admission stops gating).
    forfeit_refund:
        Fraction of a revoked (forfeited) leg's escrowed cost refunded
        to the tenant; the remainder is spent (the disruption's cost is
        shared between tenant and provider).
    pricing:
        Whether the utilization multiplier moves at all.  ``False``
        pins the multiplier at 1.0 — static power-law prices.
    pricing_decay:
        EWMA decay of the utilization estimate: the previous estimate
        keeps this weight, the newest cycle's committed/available ratio
        gets ``1 - decay``.
    pricing_gain:
        Sensitivity of the multiplier to utilization: ``multiplier =
        1 + gain * utilization`` before clamping.
    min_multiplier / max_multiplier:
        Clamp bounds of the live price multiplier.
    """

    tenants: tuple[TenantSpec, ...] = ()
    default_credit: float = 100_000.0
    default_weight: float = 1.0
    ordering: str = "drf"
    enforce_credits: bool = True
    forfeit_refund: float = 0.5
    pricing: bool = True
    pricing_decay: float = 0.7
    pricing_gain: float = 1.0
    min_multiplier: float = 1.0
    max_multiplier: float = 3.0

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")
        if self.default_credit < 0:
            raise ConfigurationError(
                f"default_credit must be >= 0, got {self.default_credit}"
            )
        if self.default_weight <= 0:
            raise ConfigurationError(
                f"default_weight must be positive, got {self.default_weight}"
            )
        if self.ordering not in ORDERING_NAMES:
            raise ConfigurationError(
                f"unknown tenancy ordering {self.ordering!r} "
                f"(choose from {ORDERING_NAMES})"
            )
        if not 0.0 <= self.forfeit_refund <= 1.0:
            raise ConfigurationError(
                f"forfeit_refund must be in [0, 1], got {self.forfeit_refund}"
            )
        if not 0.0 < self.pricing_decay < 1.0:
            raise ConfigurationError(
                f"pricing_decay must be in (0, 1), got {self.pricing_decay}"
            )
        if self.pricing_gain < 0:
            raise ConfigurationError(
                f"pricing_gain must be >= 0, got {self.pricing_gain}"
            )
        if self.min_multiplier <= 0:
            raise ConfigurationError(
                f"min_multiplier must be positive, got {self.min_multiplier}"
            )
        if self.max_multiplier < self.min_multiplier:
            raise ConfigurationError(
                f"max_multiplier ({self.max_multiplier}) must be >= "
                f"min_multiplier ({self.min_multiplier})"
            )
