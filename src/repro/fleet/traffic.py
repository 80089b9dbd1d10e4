"""Open-loop traffic generation for the fleet harness.

Open-loop is the property that makes overload *real*: arrivals are
scheduled from an external Poisson process that does not slow down when
the service struggles (closed-loop generators self-throttle and hide
the very overload the fleet exists to survive). The arrival timeline
is drawn from one seeded RNG — a pure function of the config — into
compact columns (:class:`ArrivalColumns`), and the harness turns it
into events on the shared :class:`~repro.sim.events.EventScheduler`
one at a time, each arrival scheduling the next when it fires, so a
campaign is byte-reproducible without holding an event per arrival.

Shape knobs: a piecewise-constant phase rate curve (steady / spike /
recovery), an optional diurnal sinusoid multiplying it, per-tenant
traffic shares, a store/load op mix, and Zipf-skewed key popularity for
loads (hot pages get re-faulted, like real swap traffic).
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from typing import Dict, Tuple

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


#: Values of :attr:`ArrivalColumns.op`: index 0 is a load, 1 a store.
OPS = ("load", "store")


@dataclass(frozen=True)
class ArrivalColumns:
    """The arrival schedule in time order, one column per field, so a
    campaign holds a few bytes per request-to-be instead of an object.
    Arrival ``i`` comes at ``t_ns[i]`` from ``tenants[tenant[i]]`` and
    is an ``OPS[op[i]]``."""

    tenants: Tuple[str, ...]
    t_ns: array
    tenant: array
    op: array

    def __len__(self) -> int:
        return len(self.t_ns)


def generate_arrivals(
    phases: Tuple[TrafficPhase, ...],
    base_rate_rps: float,
    tenant_shares: Dict[str, float],
    store_fraction: float,
    seed: int,
    diurnal_amplitude: float = 0.0,
    diurnal_period_ns: float = 50e6,
) -> ArrivalColumns:
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
    tenants = tuple(sorted(tenant_shares))
    indices = range(len(tenants))
    weights = [tenant_shares[t] for t in tenants]
    arrivals = ArrivalColumns(tenants, array("d"), array("I"), array("B"))
    times, tenant_column, op_column = arrivals.t_ns, arrivals.tenant, arrivals.op
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
            times.append(t)
            tenant_column.append(rng.choices(indices, weights=weights)[0])
            op_column.append(rng.random() < store_fraction)
        phase_start = phase_end
    return arrivals
