"""Per-tier circuit breaker: closed / open / half-open.

The classic pattern (Nygard, *Release It!*), adapted for a simulated
stack: the cool-down is measured in **pipeline operations** by default,
so campaigns are deterministic regardless of host speed. Configs may
instead set ``cooldown_ns`` to cool down on the shared simulated clock
(:data:`repro.sim.CLOCK`) — the wall-of-sim-time variant: an OPEN tier
re-probes once the timeline (advanced by backoff charges, chaos op
ticks, replay timestamps) passes the deadline, which is still fully
deterministic because the clock itself is.

::

                    failures reach threshold
         +--------+ ------------------------> +------+
         | CLOSED |                           | OPEN |<----+
         +--------+ <----+                    +------+     |
              ^          | probe successes        | cooldown ops elapse
              |          | reach probes_to_close  v          |
              |          +----------------- +-----------+    |
              +---------------------------- | HALF_OPEN | ---+
                                            +-----------+  probe fails

While OPEN the owner routes work around the tier; every routed-around
operation ticks the cool-down. HALF_OPEN admits a limited number of
probe operations: enough consecutive successes close the breaker, any
failure re-opens it (and restarts the cool-down).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

from repro.errors import ConfigError
from repro.sim import CLOCK as _sim_clock


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


# Module-level aliases: every tier operation tests the state, and an
# enum-class attribute lookup costs ~10x a global read.
CLOSED, OPEN, HALF_OPEN = (
    BreakerState.CLOSED, BreakerState.OPEN, BreakerState.HALF_OPEN
)


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs; defaults sized for the 3-tier chaos workload."""

    #: Consecutive failures that trip the breaker outright.
    failure_threshold: int = 3
    #: Sliding outcome window for the error-rate trigger.
    window: int = 32
    #: Error rate over a full window that trips the breaker.
    error_rate_threshold: float = 0.5
    #: Operations routed around an OPEN tier before probing again.
    cooldown_ops: int = 64
    #: Consecutive HALF_OPEN probe successes required to close.
    probes_to_close: int = 2
    #: When set, cool down on the shared simulated clock instead of the
    #: op count: an OPEN breaker re-probes once ``repro.sim.CLOCK`` has
    #: advanced ``cooldown_ns`` past the moment it opened.
    cooldown_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.failure_threshold < 1 or self.window < 1:
            raise ConfigError("breaker thresholds must be >= 1")
        if not 0.0 < self.error_rate_threshold <= 1.0:
            raise ConfigError("error_rate_threshold must be in (0, 1]")
        if self.cooldown_ops < 1 or self.probes_to_close < 1:
            raise ConfigError("cooldown/probe counts must be >= 1")
        if self.cooldown_ns is not None and self.cooldown_ns <= 0:
            raise ConfigError("cooldown_ns must be positive when set")


class CircuitBreaker:
    """Error-rate tracker + state machine for one tier.

    The owner calls :meth:`allow` before each operation (ticks the
    cool-down while OPEN) and :meth:`record_success` /
    :meth:`record_failure` after. ``on_transition(breaker, old, new)``
    fires on every state change so the owner can trace/count it;
    ``on_probe(breaker, ok)`` fires on every HALF_OPEN probe outcome so
    the owner can export probe success/failure counters.
    """

    def __init__(
        self,
        name: str,
        config: Optional[BreakerConfig] = None,
        on_transition: Optional[
            Callable[["CircuitBreaker", BreakerState, BreakerState], None]
        ] = None,
        on_probe: Optional[Callable[["CircuitBreaker", bool], None]] = None,
    ) -> None:
        self.name = name
        self.config = config or BreakerConfig()
        self.on_transition = on_transition
        self.on_probe = on_probe
        self.state = CLOSED
        self.consecutive_failures = 0
        self.probe_successes = 0
        #: Lifetime HALF_OPEN probe outcomes (never reset on transition,
        #: unlike ``probe_successes`` which tracks the current streak).
        self.probe_successes_total = 0
        self.probe_failures_total = 0
        self._cooldown_remaining = 0
        self._cooldown_until_ns = 0.0
        self._outcomes: Deque[bool] = deque(maxlen=self.config.window)
        #: state-name -> number of entries into that state.
        self.transitions: Dict[str, int] = {
            OPEN.value: 0,
            HALF_OPEN.value: 0,
            CLOSED.value: 0,
        }

    # -- queries -----------------------------------------------------------

    def error_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    # -- state machine -----------------------------------------------------

    def allow(self) -> bool:
        """Whether the tier may serve the next operation.

        While OPEN: with the default op-count cool-down each call ticks
        it down; with ``cooldown_ns`` the simulated-clock deadline is
        checked instead. Either way, once the cool-down elapses the
        breaker goes HALF_OPEN and that call is admitted as a probe.
        """
        if self.state is OPEN:
            if self.config.cooldown_ns is not None:
                if _sim_clock.now_ns() >= self._cooldown_until_ns:
                    self._transition(HALF_OPEN)
                    return True
                return False
            self._cooldown_remaining -= 1
            if self._cooldown_remaining <= 0:
                self._transition(HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> None:
        self._outcomes.append(True)
        self.consecutive_failures = 0
        if self.state is HALF_OPEN:
            self.probe_successes += 1
            self.probe_successes_total += 1
            if self.on_probe is not None:
                self.on_probe(self, True)
            if self.probe_successes >= self.config.probes_to_close:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        self._outcomes.append(False)
        self.consecutive_failures += 1
        if self.state is HALF_OPEN:
            self.probe_failures_total += 1
            if self.on_probe is not None:
                self.on_probe(self, False)
            self._transition(OPEN)
            return
        if self.state is CLOSED and self._should_trip():
            self._transition(OPEN)

    def _should_trip(self) -> bool:
        if self.consecutive_failures >= self.config.failure_threshold:
            return True
        window_full = len(self._outcomes) == self.config.window
        return (
            window_full
            and self.error_rate() >= self.config.error_rate_threshold
        )

    def _transition(self, new: BreakerState) -> None:
        old = self.state
        if old is new:
            return
        self.state = new
        self.transitions[new.value] += 1
        if new is OPEN:
            self._cooldown_remaining = self.config.cooldown_ops
            if self.config.cooldown_ns is not None:
                self._cooldown_until_ns = (
                    _sim_clock.now_ns() + self.config.cooldown_ns
                )
            self.probe_successes = 0
        elif new is HALF_OPEN:
            self.probe_successes = 0
        else:  # CLOSED
            self.consecutive_failures = 0
            self._outcomes.clear()
        if self.on_transition is not None:
            self.on_transition(self, old, new)

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly state dump for health reports."""
        return {
            "state": self.state.value,
            "error_rate": round(self.error_rate(), 4),
            "consecutive_failures": self.consecutive_failures,
            "transitions": dict(self.transitions),
            "probe_successes_total": self.probe_successes_total,
            "probe_failures_total": self.probe_failures_total,
        }
