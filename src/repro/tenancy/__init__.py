"""Multi-tenant economics: credit ledger, DRF cycle ordering, pricing.

The subsystem is entirely opt-in: ``ServiceConfig.tenancy`` defaults to
``None`` and every broker, federation and protocol path is byte-
identical to a build without this package until a
:class:`TenancyConfig` is supplied.
"""

from repro.tenancy.config import ORDERING_NAMES, TenancyConfig, TenantSpec
from repro.tenancy.drf import DRFSorter, dominant_share
from repro.tenancy.ledger import (
    CREDIT_EPSILON,
    CreditLedger,
    LedgerError,
    TenantAccount,
)
from repro.tenancy.manager import TenancyManager
from repro.tenancy.pricing import PricingEngine

__all__ = [
    "CREDIT_EPSILON",
    "CreditLedger",
    "DRFSorter",
    "LedgerError",
    "ORDERING_NAMES",
    "PricingEngine",
    "TenancyConfig",
    "TenancyManager",
    "TenantAccount",
    "TenantSpec",
    "dominant_share",
]
