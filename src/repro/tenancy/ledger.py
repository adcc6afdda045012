"""Per-tenant credit accounts with escrow-style window accounting.

The ledger debits a tenant the full (multiplier-scaled) window cost when
the broker commits the window — the amount sits in *escrow* against the
job.  From there:

- a clean retirement *settles* the escrow: the whole amount becomes
  provider revenue (``spent``);
- a revocation forfeits the revoked legs: a configurable fraction of the
  legs' escrowed cost is refunded to the tenant, the rest is spent;
- a replan or abandonment refunds whatever escrow remains.

The conservation law is exact by construction and re-checked on demand:
for every account ``balance == initial - debited + refunded`` and
globally ``sum(debits) == sum(refunds) + sum(spent) + open escrow``,
with every balance non-negative.  The :class:`TraceValidator` replays
the same law from the emitted ``CREDIT_*`` events, so the ledger and
the trace must agree independently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.model.window import left_sum
from repro.tenancy.config import TenancyConfig

#: Absolute slack for floating-point conservation checks.
CREDIT_EPSILON = 1e-6


class LedgerError(RuntimeError):
    """A conservation law failed or an escrow operation was misused."""


@dataclass
class TenantAccount:
    """One tenant's running totals.  All amounts are credit units."""

    name: str
    weight: float
    initial_credit: float
    balance: float
    debited: float = 0.0
    refunded: float = 0.0
    spent: float = 0.0
    #: Cumulative node-seconds committed on behalf of this tenant —
    #: the DRF allocation basis (monotone, never decremented).
    committed_node_seconds: float = 0.0
    #: Node-seconds currently held by live windows of this tenant.
    held_node_seconds: float = 0.0

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "weight": self.weight,
            "initial_credit": self.initial_credit,
            "balance": self.balance,
            "debited": self.debited,
            "refunded": self.refunded,
            "spent": self.spent,
            "committed_node_seconds": self.committed_node_seconds,
            "held_node_seconds": self.held_node_seconds,
        }


@dataclass
class _Escrow:
    """Credit held against one live job, plus the price multiplier the
    job was committed under (leg refunds must use the same scale)."""

    tenant: str
    remaining: float
    multiplier: float
    node_seconds: float = 0.0


@dataclass
class CreditLedger:
    """Thread-safe tenant registry + escrow accounting.

    One ledger instance is shared by every broker of a federation, so
    all mutation happens under an internal lock (brokers already hold
    their own locks; the ledger lock is leaf-level and never held while
    calling out).
    """

    config: TenancyConfig
    _accounts: dict[str, TenantAccount] = field(default_factory=dict)
    _escrow: dict[str, _Escrow] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        for spec in self.config.tenants:
            self._accounts[spec.name] = TenantAccount(
                name=spec.name,
                weight=spec.weight,
                initial_credit=spec.credit,
                balance=spec.credit,
            )

    # -- registry ----------------------------------------------------

    def account(self, tenant: str) -> TenantAccount:
        """The tenant's account, auto-registered on first contact."""
        with self._lock:
            return self._account_locked(tenant)

    def _account_locked(self, tenant: str) -> TenantAccount:
        acct = self._accounts.get(tenant)
        if acct is None:
            acct = TenantAccount(
                name=tenant,
                weight=self.config.default_weight,
                initial_credit=self.config.default_credit,
                balance=self.config.default_credit,
            )
            self._accounts[tenant] = acct
        return acct

    def balance(self, tenant: str) -> float:
        return self.account(tenant).balance

    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._accounts))

    # -- escrow operations -------------------------------------------

    def debit(
        self,
        tenant: str,
        job_id: str,
        amount: float,
        *,
        multiplier: float = 1.0,
        node_seconds: float = 0.0,
    ) -> bool:
        """Debit ``amount`` into escrow against ``job_id``.

        Returns ``False`` — leaving every total untouched — when the
        tenant cannot afford the amount.  An unaffordable commit is
        never allowed to overdraw the account, even with enforcement
        off, because a negative balance breaks the conservation law.
        """
        if amount < 0:
            raise LedgerError(f"negative debit {amount} for {job_id}")
        with self._lock:
            if job_id in self._escrow:
                raise LedgerError(f"job {job_id} already holds escrow")
            acct = self._account_locked(tenant)
            if acct.balance + CREDIT_EPSILON < amount:
                return False
            acct.balance -= amount
            acct.debited += amount
            acct.committed_node_seconds += node_seconds
            acct.held_node_seconds += node_seconds
            self._escrow[job_id] = _Escrow(
                tenant=tenant,
                remaining=amount,
                multiplier=multiplier,
                node_seconds=node_seconds,
            )
            return True

    def multiplier(self, job_id: str) -> float:
        """The price multiplier ``job_id`` was committed under."""
        with self._lock:
            escrow = self._escrow.get(job_id)
            return 1.0 if escrow is None else escrow.multiplier

    def holds_escrow(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._escrow

    def refund_forfeit(self, job_id: str, leg_cost: float) -> tuple[str, float]:
        """A revocation forfeited legs worth ``leg_cost`` (at commit-time
        prices, pre-multiplier).  Refund ``forfeit_refund`` of the scaled
        cost, spend the rest.  Returns ``(tenant, refunded_amount)``;
        ``("", 0.0)`` when the job holds no escrow."""
        if leg_cost < 0:
            raise LedgerError(f"negative forfeit cost {leg_cost} for {job_id}")
        with self._lock:
            escrow = self._escrow.get(job_id)
            if escrow is None:
                return "", 0.0
            take = min(escrow.remaining, leg_cost * escrow.multiplier)
            refund = take * self.config.forfeit_refund
            escrow.remaining -= take
            acct = self._account_locked(escrow.tenant)
            acct.balance += refund
            acct.refunded += refund
            acct.spent += take - refund
            if escrow.remaining <= CREDIT_EPSILON:
                leftover = escrow.remaining
                if leftover > 0.0:
                    # Absorb float dust into revenue so escrow closes exactly.
                    acct.spent += leftover
                acct.held_node_seconds = max(
                    0.0, acct.held_node_seconds - escrow.node_seconds
                )
                del self._escrow[job_id]
            return escrow.tenant, refund

    def refund_release(self, job_id: str) -> tuple[str, float]:
        """The job's remaining window was released without running
        (replan / abandon / shard-loss release): refund the whole
        remaining escrow.  Returns ``(tenant, refunded_amount)``."""
        with self._lock:
            escrow = self._escrow.pop(job_id, None)
            if escrow is None:
                return "", 0.0
            acct = self._account_locked(escrow.tenant)
            acct.balance += escrow.remaining
            acct.refunded += escrow.remaining
            acct.held_node_seconds = max(
                0.0, acct.held_node_seconds - escrow.node_seconds
            )
            return escrow.tenant, escrow.remaining

    def settle(self, job_id: str) -> tuple[str, float]:
        """The job retired cleanly: the remaining escrow becomes
        provider revenue.  Returns ``(tenant, settled_amount)``."""
        with self._lock:
            escrow = self._escrow.pop(job_id, None)
            if escrow is None:
                return "", 0.0
            acct = self._account_locked(escrow.tenant)
            acct.spent += escrow.remaining
            acct.held_node_seconds = max(
                0.0, acct.held_node_seconds - escrow.node_seconds
            )
            return escrow.tenant, escrow.remaining

    # -- introspection ------------------------------------------------

    def open_escrow(self) -> float:
        with self._lock:
            return left_sum(e.remaining for e in self._escrow.values())

    def total_revenue(self) -> float:
        with self._lock:
            return left_sum(a.spent for a in self._accounts.values())

    def committed_shares(self) -> dict[str, float]:
        """Cumulative committed node-seconds per tenant (DRF basis)."""
        with self._lock:
            return {
                name: acct.committed_node_seconds
                for name, acct in self._accounts.items()
            }

    def weights(self) -> dict[str, float]:
        with self._lock:
            return {name: acct.weight for name, acct in self._accounts.items()}

    def snapshot(self) -> dict:
        with self._lock:
            accounts = {
                name: self._accounts[name].snapshot()
                for name in sorted(self._accounts)
            }
            open_escrow = left_sum(e.remaining for e in self._escrow.values())
            return {
                "accounts": accounts,
                "open_escrow": open_escrow,
                "open_jobs": len(self._escrow),
                "total_debited": left_sum(a["debited"] for a in accounts.values()),
                "total_refunded": left_sum(a["refunded"] for a in accounts.values()),
                "total_spent": left_sum(a["spent"] for a in accounts.values()),
            }

    def assert_conservation(self) -> None:
        """Raise :class:`LedgerError` unless every conservation law
        holds: per-account ``balance == initial - debited + refunded``
        and ``balance >= 0``; globally ``debited == refunded + spent +
        open escrow``."""
        with self._lock:
            open_escrow = left_sum(e.remaining for e in self._escrow.values())
            debited = refunded = spent = 0.0
            for name, acct in self._accounts.items():
                expected = acct.initial_credit - acct.debited + acct.refunded
                if abs(acct.balance - expected) > CREDIT_EPSILON:
                    raise LedgerError(
                        f"tenant {name}: balance {acct.balance} != "
                        f"initial - debited + refunded = {expected}"
                    )
                if acct.balance < -CREDIT_EPSILON:
                    raise LedgerError(
                        f"tenant {name}: negative balance {acct.balance}"
                    )
                debited += acct.debited
                refunded += acct.refunded
                spent += acct.spent
            if abs(debited - (refunded + spent + open_escrow)) > max(
                CREDIT_EPSILON, 1e-9 * max(debited, 1.0)
            ):
                raise LedgerError(
                    f"ledger imbalance: debited {debited} != refunded "
                    f"{refunded} + spent {spent} + open escrow {open_escrow}"
                )
