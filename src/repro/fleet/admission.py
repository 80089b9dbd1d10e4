"""Per-tenant admission control: token-bucket rate quotas plus
resident-page capacity quotas.

Admission is the outermost shed point — it runs before any queueing or
pipeline work, so a rejected request costs nothing but the bucket math
(shed-before-work). Buckets refill continuously against the shared
simulated clock (:data:`repro.sim.CLOCK`), making every admit/shed
decision a pure function of the arrival timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError, OverloadError
from repro.sim import CLOCK as _sim_clock
from repro.telemetry.registry import CounterFamily, MetricsRegistry


class TokenBucket:
    """Continuous-refill token bucket on the simulated clock."""

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0 or burst < 1:
            raise ConfigError("token bucket needs rate > 0 and burst >= 1")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_ns = _sim_clock.now_ns()

    def _refill(self) -> None:
        # The clock can stand behind the cursor: a read inside a
        # borrowed timeline (``CLOCK.scoped()``) moves the cursor to the
        # scope's later instant, and ending the scope restores an
        # earlier one. Only credit — and only move the cursor — when
        # time has actually progressed; crediting that interval twice
        # would mint tokens from nothing.
        now = _sim_clock.now_ns()
        if now <= self._last_ns:
            return
        self._tokens = min(
            self.burst,
            self._tokens + (now - self._last_ns) * self.rate_per_s / 1e9,
        )
        self._last_ns = now

    def try_take(self, n: float = 1.0) -> bool:
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def retry_after_ns(self, n: float = 1.0) -> float:
        """Simulated ns until ``n`` tokens will have accumulated."""
        self._refill()
        deficit = max(0.0, n - self._tokens)
        return deficit / self.rate_per_s * 1e9


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's service contract.

    ``qos`` selects degraded-mode treatment: ``"premium"`` tenants keep
    the full-fidelity codec through a brownout; any other class is
    degradable. ``capacity_pages`` caps resident (acknowledged, not yet
    loaded-back) pages — the capacity analogue of the rate quota.
    """

    name: str
    rate_per_s: float
    burst: float = 32.0
    capacity_pages: int = 1 << 30
    qos: str = "standard"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant quota needs a name")
        if self.capacity_pages < 1:
            raise ConfigError("capacity_pages must be >= 1")


class AdmissionController:
    """Admit-or-shed gate over a set of :class:`TenantQuota`."""

    def __init__(
        self,
        quotas: Tuple[TenantQuota, ...],
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not quotas:
            raise ConfigError("admission controller needs at least one tenant")
        names = [q.name for q in quotas]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names: {names}")
        self.quotas: Dict[str, TenantQuota] = {q.name: q for q in quotas}
        self.buckets: Dict[str, TokenBucket] = {
            q.name: TokenBucket(q.rate_per_s, q.burst) for q in quotas
        }
        #: Acknowledged resident pages per tenant (stores minus loads).
        self.resident_pages: Dict[str, int] = {q.name: 0 for q in quotas}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._outcomes = CounterFamily(
            self.registry, "fleet.admission", "tenant", "result"
        )

    def admit(self, tenant: str, op: str) -> None:
        """Shed-before-work gate; raises :class:`OverloadError` on shed.

        The raised error carries a ``retry_after_ns`` hint sized from
        the bucket's refill rate so a well-behaved client retries when
        tokens will actually exist.
        """
        if tenant not in self.quotas:
            raise ConfigError(f"unknown tenant {tenant!r}")
        quota = self.quotas[tenant]
        if (
            op == "store"
            and self.resident_pages[tenant] >= quota.capacity_pages
        ):
            self._outcomes[tenant, "shed-capacity"].inc()
            raise OverloadError(
                f"tenant {tenant} at capacity quota "
                f"({quota.capacity_pages} pages)",
                reason="capacity-quota",
                retry_after_ns=self.buckets[tenant].retry_after_ns(),
            )
        bucket = self.buckets[tenant]
        if not bucket.try_take():
            self._outcomes[tenant, "shed-rate"].inc()
            raise OverloadError(
                f"tenant {tenant} over rate quota "
                f"({quota.rate_per_s:.0f}/s)",
                reason="rate-quota",
                retry_after_ns=bucket.retry_after_ns(),
            )
        self._outcomes[tenant, "admitted"].inc()

    def on_page_stored(self, tenant: str) -> None:
        self.resident_pages[tenant] += 1

    def on_page_released(self, tenant: str) -> None:
        if self.resident_pages[tenant] > 0:
            self.resident_pages[tenant] -= 1

    def degradable_tenants(self) -> Tuple[str, ...]:
        """Tenants the brownout controller may degrade (non-premium)."""
        return tuple(
            sorted(q.name for q in self.quotas.values() if q.qos != "premium")
        )
