"""Open-loop traffic generation for the fleet harness.

Open-loop is the property that makes overload *real*: arrivals are
scheduled from an external Poisson process that does not slow down when
the service struggles (closed-loop generators self-throttle and hide
the very overload this PR exists to survive). The whole arrival
timeline is generated up front from one seeded RNG — a pure function of
the config — and scheduled as events on the shared
:class:`~repro.sim.events.EventScheduler`, so a campaign is
byte-reproducible.

Shape knobs: a piecewise-constant phase rate curve (steady / spike /
recovery), an optional diurnal sinusoid multiplying it, per-tenant
traffic shares, a store/load op mix, and Zipf-skewed key popularity for
loads (hot pages get re-faulted, like real swap traffic).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigError

# The harness calls page_for through its own module global, which it
# binds from here; benchmarks/e2e/layers.py patches both names.
from repro.workloads.corpus import page_for  # noqa: F401

#: Key-space stride separating tenants (keys stay globally unique).
TENANT_KEY_STRIDE = 1 << 24


@dataclass(frozen=True)
class TrafficPhase:
    """One piecewise-constant segment of the arrival-rate curve."""

    name: str
    duration_ns: float
    rate_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.duration_ns <= 0 or self.rate_multiplier <= 0:
            raise ConfigError("phase needs positive duration and multiplier")


@dataclass(frozen=True)
class Arrival:
    """One scheduled request-to-be: everything but the page bytes."""

    t_ns: float
    tenant: str
    op: str
    phase: str


def generate_arrivals(
    phases: Tuple[TrafficPhase, ...],
    base_rate_rps: float,
    tenant_shares: Dict[str, float],
    store_fraction: float,
    seed: int,
    diurnal_amplitude: float = 0.0,
    diurnal_period_ns: float = 50e6,
) -> List[Arrival]:
    """The full arrival schedule, sorted by time.

    Inter-arrival gaps are exponential at the *instantaneous* rate
    ``base_rate_rps * phase.multiplier * diurnal(t)``; tenant and op are
    i.i.d. draws from the shares / store fraction. Deterministic in
    ``seed``.
    """
    if base_rate_rps <= 0:
        raise ConfigError("base_rate_rps must be positive")
    if not 0.0 < store_fraction < 1.0:
        raise ConfigError("store_fraction must be in (0, 1)")
    if not phases:
        raise ConfigError("need at least one traffic phase")
    if not tenant_shares or any(v <= 0 for v in tenant_shares.values()):
        raise ConfigError("tenant shares must be positive")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ConfigError("diurnal_amplitude must be in [0, 1)")
    rng = random.Random(seed)
    tenants = sorted(tenant_shares)
    weights = [tenant_shares[t] for t in tenants]
    arrivals: List[Arrival] = []
    t = 0.0
    phase_start = 0.0
    for phase in phases:
        phase_end = phase_start + phase.duration_ns
        if t < phase_start:
            t = phase_start
        while True:
            diurnal = 1.0 + diurnal_amplitude * math.sin(
                2.0 * math.pi * t / diurnal_period_ns
            )
            rate_per_ns = (
                base_rate_rps * phase.rate_multiplier * diurnal / 1e9
            )
            t += rng.expovariate(rate_per_ns)
            if t >= phase_end:
                break
            tenant = rng.choices(tenants, weights=weights)[0]
            op = "store" if rng.random() < store_fraction else "load"
            arrivals.append(
                Arrival(t_ns=t, tenant=tenant, op=op, phase=phase.name)
            )
        phase_start = phase_end
    return arrivals
