"""The run context: the process state a run borrows and hands back.

A run (a telemetry session, a chaos campaign, a replay with faults, a
test) needs four pieces of process state besides the shared clock:

* ``ring`` — the :class:`~repro.telemetry.trace.TraceRing` trace events
  go to; tracing is on exactly while it is set. The ring also owns the
  span id counter and the open-span stack (:mod:`repro.telemetry.spans`).
* ``flight`` — the :class:`~repro.telemetry.flightrec.FlightRecorder`
  that shadows every trace event and writes black boxes on failure.
* ``injector`` — the :class:`~repro.resilience.faults.FaultInjector`
  the injection sites draw from; injection is on exactly while it is
  set.
* ``validation`` — whether invariant checkpoints run
  (:mod:`repro.validation.hooks`).

They live together in one slotted :class:`RunContext`. Exactly one is
current; ``with run_context(...)`` makes a new one from the current one
plus overrides, and exit makes the enclosing one current again in one
assignment. A field not passed is inherited; passing ``None`` (or
``False``) switches it off inside the scope. ``clock_ns`` also rebases
:data:`repro.sim.CLOCK` and puts its ticks back on exit.

The hot-path guards (``tracing_enabled()``, ``injection_enabled()``,
``validation_enabled()``, ``checkpoint()``, ``faults.fire()``,
``flightrec.trigger()``) each read one field of ``_current``: with
nothing installed the cost is a module attribute read and a slot read.

The root context has everything off except ``validation``, which is on
when the ``REPRO_VALIDATION`` environment variable is set.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.sim.clock import CLOCK


class RunContext:
    """One run's borrowed process state (see module docstring)."""

    __slots__ = ("ring", "flight", "injector", "validation")

    def __init__(
        self,
        ring: Any = None,
        flight: Any = None,
        injector: Any = None,
        validation: bool = False,
    ) -> None:
        self.ring = ring
        self.flight = flight
        self.injector = injector
        self.validation = validation


#: Marks a :func:`run_context` field the caller did not pass.
_INHERIT: Any = object()

#: The current context. Guards read it directly; only
#: :func:`run_context` assigns it.
_current = RunContext(validation=bool(os.environ.get("REPRO_VALIDATION")))


def current() -> RunContext:
    """The context the current run sees."""
    return _current


@contextmanager
def run_context(
    *,
    ring: Any = _INHERIT,
    flight: Any = _INHERIT,
    injector: Any = _INHERIT,
    validation: Any = _INHERIT,
    clock_ns: Optional[float] = None,
) -> Iterator[RunContext]:
    """Run the body under the current context with the given overrides;
    yields the new context and restores the enclosing one on exit."""
    global _current
    outer = _current
    inner = RunContext(
        outer.ring if ring is _INHERIT else ring,
        outer.flight if flight is _INHERIT else flight,
        outer.injector if injector is _INHERIT else injector,
        outer.validation if validation is _INHERIT else bool(validation),
    )
    ticks = CLOCK.now_ticks()
    if clock_ns is not None:
        CLOCK.set_ns(clock_ns)
    _current = inner
    try:
        yield inner
    finally:
        _current = outer
        if clock_ns is not None:
            CLOCK.set_ticks(ticks)
