"""repro.sim: the shared discrete-event simulation core.

One :class:`SimClock` (:data:`CLOCK`) drives DRAM refresh cadence, NMA
window scheduling, telemetry timestamps, replay timelines, and
resilience backoff; one :class:`EventScheduler` turns "derive the next
window arithmetically" into "consume the next scheduled event"; one
:func:`~repro.sim.context.run_context` scopes the rest of a run's borrowed process state
(trace ring, flight recorder, fault injector, validation flag). All
simulated-time and run state in ``src/repro`` lives here — the
error-hygiene lint forbids ad-hoc clock globals, wall-clock reads and
run-state ``global`` statements everywhere else.
"""

from repro.sim.clock import (
    CLOCK,
    TICKS_PER_NS,
    SimClock,
    ns_to_ticks,
    ticks_to_ns,
)
from repro.sim.events import EventScheduler

__all__ = [
    "CLOCK",
    "EventScheduler",
    "SimClock",
    "TICKS_PER_NS",
    "ns_to_ticks",
    "ticks_to_ns",
]
