"""Deterministic discrete-event scheduler over the shared SimClock.

A minimal DES core: a binary heap of timestamped callbacks with
**stable tie-breaking** — events scheduled for the same instant fire in
the order they were scheduled (a monotone sequence number breaks heap
ties), so a run is a pure function of the schedule regardless of heap
internals or hash order. The heap holds ``(ticks, seq, fn)`` tuples, so
ordering is a C tuple compare; ``seq`` is unique, so the callback
itself is never compared.

Event lifecycle (see DESIGN.md §11):

1. ``schedule(t_ns, fn)`` / ``schedule_after(dt_ns, fn)`` enqueue a
   callback; scheduling strictly in the past raises.
2. ``step()`` pops the earliest event, moves the clock **forward to the
   event's timestamp**, then runs the callback. Callbacks may schedule
   further events (self-rescheduling handlers are the idiom the refresh
   policies use to emit their window streams).
3. Time only moves forward through ``step()``. A callback that models
   work (a served request's codec and device costs) runs that work in a
   borrowed timeline — ``CLOCK.scoped()`` — so the clock is back at the
   event's tick when the callback returns. A callback that leaves the
   clock past the next event is a bug, and the next ``step()`` raises
   :class:`~repro.errors.ConfigError` naming it.
4. ``run_until(t_ns)`` drains events up to a horizon; ``run()`` drains
   the heap.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.clock import CLOCK, SimClock, ns_to_ticks, ticks_to_ns


class EventScheduler:
    """Heap of timestamped callbacks draining against a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else CLOCK
        #: (ticks, seq, fn): time first, then schedule order.
        self._heap: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = 0
        #: The callback ``step()`` ran last, named when the next event
        #: finds the clock already past its tick (``None`` once drained).
        self._last_fn: Optional[Callable[[], None]] = None

    # -- enqueue -------------------------------------------------------------

    def schedule_at_ticks(self, ticks: int, fn: Callable[[], None]) -> None:
        """Exact-tick scheduling (refresh policies compute integer window
        starts and must not round-trip them through floats)."""
        if ticks < self.clock.now_ticks():
            raise ConfigError(
                f"cannot schedule event in the past: t={ticks_to_ns(ticks)}"
                f" ns < now={self.clock.now_ns()} ns"
            )
        heapq.heappush(self._heap, (ticks, self._seq, fn))
        self._seq += 1

    def schedule(self, t_ns: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at absolute simulated time ``t_ns``."""
        self.schedule_at_ticks(ns_to_ticks(t_ns), fn)

    def schedule_after(self, dt_ns: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at ``now + dt_ns`` (dt >= 0)."""
        if dt_ns < 0:
            raise ConfigError(f"schedule_after needs dt >= 0, got {dt_ns}")
        self.schedule_at_ticks(
            self.clock.now_ticks() + ns_to_ticks(dt_ns), fn
        )

    def __len__(self) -> int:
        return len(self._heap)

    # -- drain ---------------------------------------------------------------

    def step(self) -> bool:
        """Run the earliest event (clock moves forward to its timestamp);
        returns False when no events remain. Raises ``ConfigError`` when
        the clock is already past the event: the last callback ran
        modelled work outside a borrowed timeline."""
        if not self._heap:
            self._last_fn = None  # a drained scheduler holds no callback
            return False
        ticks, _, fn = heapq.heappop(self._heap)
        clock = self.clock
        if ticks < clock.now_ticks():
            raise ConfigError(
                f"clock at {clock.now_ns()} ns is past the next event at"
                f" {ticks_to_ns(ticks)} ns: callback {self._last_fn!r} left"
                " it there; run modelled work inside CLOCK.scoped()"
            )
        clock.set_ticks(ticks)
        self._last_fn = fn
        fn()
        return True

    def run_until(self, t_ns: float) -> int:
        """Drain events with timestamp <= ``t_ns``; returns how many
        fired. The clock is left at the last fired event, not pushed to
        the horizon — callers that need the horizon time advance
        explicitly."""
        limit = ns_to_ticks(t_ns)
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= limit:
            self.step()
            fired += 1
        return fired

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the whole heap (bounded by ``max_events`` if given)."""
        fired = 0
        while (max_events is None or fired < max_events) and self.step():
            fired += 1
        return fired
