"""Brownout controller: graceful degradation with hysteresis.

Under sustained pressure the fleet trades fidelity for headroom instead
of falling over: degradable tenants switch to the cheaper static-table
codec and demotion cascades are bypassed. The controller watches the
shed rate over fixed simulated-time windows and drives a two-state
machine::

      shed rate > enter_shed_rate for enter_windows consecutive windows
    NORMAL ----------------------------------------------------------> BROWNOUT
    NORMAL <---------------------------------------------------------- BROWNOUT
      shed rate < exit_shed_rate for exit_windows consecutive windows

The asymmetric thresholds plus the consecutive-window counts are the
hysteresis: a single noisy window neither enters nor exits degraded
mode, so the system cannot flap codec state at window frequency.
Transitions fire owner-supplied enter/exit actions, emit a
``fleet_brownout`` trace instant, and accumulate degraded-mode
residency (reported as a first-class health metric — time spent
degraded is an SLO input in the hyperscale framing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.sim import CLOCK as _sim_clock
from repro.telemetry import trace as _trace
from repro.telemetry.registry import MetricsRegistry

#: Trace track for fleet-level control events.
TRACK_FLEET = "fleet"


@dataclass(frozen=True)
class BrownoutConfig:
    """Hysteresis tuning; shed rates are fractions of offered load."""

    enter_shed_rate: float = 0.05
    exit_shed_rate: float = 0.01
    enter_windows: int = 2
    exit_windows: int = 5
    window_ns: float = 1_000_000.0

    def __post_init__(self) -> None:
        if not 0.0 < self.exit_shed_rate <= self.enter_shed_rate < 1.0:
            raise ConfigError(
                "need 0 < exit_shed_rate <= enter_shed_rate < 1"
            )
        if self.enter_windows < 1 or self.exit_windows < 1:
            raise ConfigError("hysteresis window counts must be >= 1")
        if self.window_ns <= 0:
            raise ConfigError("window_ns must be positive")


class BrownoutController:
    """Shed-rate watcher driving enter/exit degradation actions."""

    def __init__(
        self,
        config: BrownoutConfig,
        on_enter: Optional[Callable[[], None]] = None,
        on_exit: Optional[Callable[[], None]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.on_enter = on_enter
        self.on_exit = on_exit
        self.registry = registry if registry is not None else MetricsRegistry()
        self.active = False
        self.residency_ns = 0.0
        self._entered_at_ns = 0.0
        self._over = 0
        self._under = 0
        # Current-window tallies, fed by the frontend per decision.
        self._offered = 0
        self._shed = 0

    # -- per-request feed ---------------------------------------------------

    def record(self, shed: bool) -> None:
        """One admission decision in the current window."""
        self._offered += 1
        if shed:
            self._shed += 1

    # -- windowing ----------------------------------------------------------

    def evaluate_window(self) -> None:
        """Close the current window and run the hysteresis step.

        Called by the owner's periodic tick event; empty windows count
        as zero-shed (they push the exit counter, which is what lets a
        fully-shed-quiet system recover)."""
        rate = self._shed / self._offered if self._offered else 0.0
        self._offered = 0
        self._shed = 0
        if self.active:
            if rate < self.config.exit_shed_rate:
                self._under += 1
                if self._under >= self.config.exit_windows:
                    self._transition(False, rate)
            else:
                self._under = 0
        else:
            if rate > self.config.enter_shed_rate:
                self._over += 1
                if self._over >= self.config.enter_windows:
                    self._transition(True, rate)
            else:
                self._over = 0

    def _transition(self, entering: bool, rate: float) -> None:
        now = _sim_clock.now_ns()
        self.active = entering
        self._over = 0
        self._under = 0
        if entering:
            self._entered_at_ns = now
        else:
            self.residency_ns += now - self._entered_at_ns
        to = "brownout" if entering else "normal"
        self.registry.counter("fleet.brownout.transitions", to=to).inc()
        if _trace.tracing_enabled():
            _trace.instant(
                "fleet_brownout", TRACK_FLEET,
                args={"to": to, "shed_rate": round(rate, 4)},
            )
        action = self.on_enter if entering else self.on_exit
        if action is not None:
            action()

    # -- reporting ----------------------------------------------------------

    def total_residency_ns(self) -> float:
        """Degraded-mode residency including a still-open episode."""
        open_ns = (
            _sim_clock.now_ns() - self._entered_at_ns if self.active else 0.0
        )
        return self.residency_ns + open_ns

    def snapshot(self) -> dict:
        return {
            "active": self.active,
            "entries": self.registry.value(
                "fleet.brownout.transitions", to="brownout"
            ),
            "exits": self.registry.value(
                "fleet.brownout.transitions", to="normal"
            ),
            "residency_ns": round(self.total_residency_ns(), 1),
        }
