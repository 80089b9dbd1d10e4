"""Global retry-budget governor: retries never amplify an overload.

The classic failure mode of naive clients is the retry storm: a shed
response triggers a retry, the retry is shed, and offered load grows as
a multiple of the overload that caused the shedding. The governor makes
retries a *scarce resource*: every admitted first-attempt request earns
a fraction of a retry token into one shared balance; a retry spends a
whole token. The algebra bounds retry traffic at ``earn_fraction`` of
admitted traffic no matter how aggressively clients retry — when the
balance is empty the retry is refused outright
(:class:`~repro.errors.RetryBudgetExhausted`, a fast-fail the client
must not retry harder against).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError, RetryBudgetExhausted
from repro.telemetry.registry import MetricsRegistry


class RetryBudget:
    """Shared earn/spend balance for the whole fleet."""

    def __init__(
        self,
        earn_fraction: float = 0.1,
        initial: float = 8.0,
        cap: float = 64.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 <= earn_fraction <= 1.0:
            raise ConfigError("earn_fraction must be in [0, 1]")
        if cap < 1.0 or initial < 0.0 or initial > cap:
            raise ConfigError("retry budget needs 0 <= initial <= cap, cap >= 1")
        self.earn_fraction = earn_fraction
        self.cap = cap
        self.balance = float(initial)
        self.registry = registry if registry is not None else MetricsRegistry()
        #: The one count of spent and refused retries.
        self._spent_counter = self.registry.counter(
            "fleet.retry_budget", event="spent"
        )
        self._refused_counter = self.registry.counter(
            "fleet.retry_budget", event="refused"
        )

    def earn(self) -> None:
        """Credit for one admitted first-attempt request."""
        self.balance = min(self.cap, self.balance + self.earn_fraction)

    def spend(self, retry_after_ns: float = 0.0) -> None:
        """Charge one retry; raises :class:`RetryBudgetExhausted` when
        the balance cannot cover it (the caller must fast-fail)."""
        # Epsilon absorbs float accumulation of fractional earnings
        # (ten 0.1-earns must fund exactly one retry).
        if self.balance >= 1.0 - 1e-9:
            self.balance = max(0.0, self.balance - 1.0)
            self._spent_counter.inc()
            return
        self._refused_counter.inc()
        raise RetryBudgetExhausted(
            f"retry budget exhausted (balance={self.balance:.2f})",
            retry_after_ns=retry_after_ns,
        )

    def snapshot(self) -> dict:
        return {
            "balance": round(self.balance, 4),
            "spent": self._spent_counter.value,
            "refused": self._refused_counter.value,
            "earn_fraction": self.earn_fraction,
            "cap": self.cap,
        }
