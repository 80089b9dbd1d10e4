"""The shared simulated clock: one timeline for the whole stack.

Every layer that used to keep its own notion of simulated time — the
telemetry trace clock, the scenario replayer's per-event clock swap,
resilience backoff charging, the DRAM refresh cadence — now reads and
writes this one :class:`SimClock` instance (:data:`CLOCK`).

Representation: integer **femtosecond ticks** (:data:`TICKS_PER_NS`
ticks per nanosecond). Integers never accumulate rounding error, so a
billion backoff charges land exactly where the sum says they should;
and because 1 ns = 10^6 ticks is a power of (2x5), every short-decimal
nanosecond value the repo uses (0.0, 1000.0, 3906.25 for tREFI, 2.5
for tBURST) round-trips *exactly* through :meth:`SimClock.now_ns` —
which is what keeps the committed golden traces and shipped scenario
fingerprints byte-identical across the refactor.

Ownership rules (see DESIGN.md §11):

* **Advance** (:meth:`SimClock.advance_ns`) is monotonic — negative
  deltas raise. Components charging modeled costs (backends, retry
  backoff, chaos op ticks) only ever advance.
* **Set** (:meth:`SimClock.set_ns`) is reserved for timeline *owners*:
  the event scheduler (which only ever moves it forward), the trace
  replayer, the run context. Owners that borrow the clock must scope
  themselves with :meth:`SimClock.scoped` or
  ``run_context(clock_ns=...)`` (:mod:`repro.sim.context`) so nesting
  composes — ``TraceReplayer`` and ``TelemetrySession`` do. So does an
  event callback that models work: the next event must not find the
  clock past its tick.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError

#: Clock ticks per nanosecond (1 tick = 1 femtosecond).
TICKS_PER_NS = 1_000_000


def ns_to_ticks(t_ns: float) -> int:
    """Convert float nanoseconds to integer ticks (nearest femtosecond)."""
    return round(t_ns * TICKS_PER_NS)


def ticks_to_ns(ticks: int) -> float:
    """Convert integer ticks back to float nanoseconds."""
    return ticks / TICKS_PER_NS


class SimClock:
    """Integer-tick simulated clock with :meth:`scoped` save/restore."""

    __slots__ = ("_ticks",)

    def __init__(self, start_ns: float = 0.0) -> None:
        self._ticks = ns_to_ticks(start_ns)

    # -- reads ---------------------------------------------------------------

    def now_ns(self) -> float:
        """Current simulated time in nanoseconds (float-facing API)."""
        return self._ticks / TICKS_PER_NS

    def now_ticks(self) -> int:
        """Current simulated time in integer ticks (exact)."""
        return self._ticks

    # -- writes --------------------------------------------------------------

    def set_ns(self, t_ns: float) -> None:
        """Jump the clock to ``t_ns`` (timeline owners only; see module
        docstring). Borrowers must pair this with :meth:`scoped` so the outer
        timeline resumes intact."""
        self._ticks = ns_to_ticks(t_ns)

    def set_ticks(self, ticks: int) -> None:
        """Exact-tick variant of :meth:`set_ns` (the event scheduler and
        the refresh policies use this to avoid any float round-trip)."""
        self._ticks = int(ticks)

    def advance_ns(self, dt_ns: float) -> float:
        """Advance by ``dt_ns`` >= 0; returns the new time in ns."""
        if dt_ns < 0:
            raise ConfigError(
                f"simulated clock only advances forward, got dt={dt_ns} ns"
            )
        self._ticks += ns_to_ticks(dt_ns)
        return self._ticks / TICKS_PER_NS

    # -- scoping -------------------------------------------------------------

    def scoped(self, start_ns: Optional[float] = None) -> "ClockScope":
        """Save the clock, optionally jump to ``start_ns``, and restore
        the saved time on exit — nested scopes compose like a stack."""
        return ClockScope(self, start_ns)


class ClockScope:
    """The context manager :meth:`SimClock.scoped` returns: enter saves
    the clock's ticks (and jumps to ``start_ns`` when given), exit puts
    them back, also when the body raises."""

    __slots__ = ("_clock", "_start_ns", "_saved")

    def __init__(self, clock: SimClock, start_ns: Optional[float]) -> None:
        self._clock = clock
        self._start_ns = start_ns

    def __enter__(self) -> SimClock:
        clock = self._clock
        self._saved = clock._ticks
        if self._start_ns is not None:
            clock.set_ns(self._start_ns)
        return clock

    def __exit__(self, exc_type, exc, tb) -> None:
        self._clock._ticks = self._saved


#: The process-wide shared clock every subsystem schedules against.
CLOCK = SimClock()
