"""Deterministic discrete-event scheduler over the shared SimClock.

A minimal DES core: a binary heap of timestamped callbacks with
**stable tie-breaking** — events scheduled for the same instant fire in
the order they were scheduled (a monotone sequence number breaks heap
ties), so a run is a pure function of the schedule regardless of heap
internals or hash order. The heap holds ``(ticks, seq, fn)`` tuples, so
ordering is a C tuple compare; ``seq`` is unique, so the callback
itself is never compared. :meth:`EventScheduler.reserve` hands out a
block of sequence numbers up front, so a stream whose events are
scheduled one at a time (each when the previous one fires) keeps the
tie order it would have had if all were scheduled at once.

Event lifecycle (see DESIGN.md §11):

1. ``schedule(t_ns, fn)`` / ``schedule_after(dt_ns, fn)`` enqueue a
   callback; scheduling strictly in the past raises.
2. ``step()`` pops the earliest event, moves the clock **forward to the
   event's timestamp**, then runs the callback. Callbacks may schedule
   further events.
3. A callback may instead **return its successor's tick** (``None``:
   none), as the refresh-window streams do. The drain runs the successor
   at once when it sorts before every queued event and lies inside the
   drain's bounds, and pushes it otherwise (the heap's own choice).
4. Time only moves forward through the one drain loop (``step``,
   ``run_until``, ``run``). A callback that models work (a served
   request's codec and device costs) runs that work in a borrowed
   timeline — ``CLOCK.scoped()`` — so the clock is back at the event's
   tick when the callback returns. A callback that leaves the clock past
   the next event (or its own successor) is a bug, and the drain raises
   :class:`~repro.errors.ConfigError` naming it.
5. ``run_until(t_ns)`` drains events up to a horizon; ``run()`` drains
   the heap.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.clock import CLOCK, SimClock, ns_to_ticks, ticks_to_ns

Callback = Callable[[], Optional[int]]  # returns its successor's tick


class EventScheduler:
    """Heap of timestamped callbacks draining against a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else CLOCK
        #: (ticks, seq, fn): time first, then schedule order.
        self._heap: List[Tuple[int, int, Callback]] = []
        self._seq = 0
        #: The callback the drain ran last, named when the next event
        #: finds the clock already past its tick (``None`` once drained).
        self._last_fn: Optional[Callback] = None

    # -- enqueue -------------------------------------------------------------

    def reserve(self, n: int) -> int:
        """Set aside ``n`` sequence numbers and return the first; the
        block is passed back one at a time as ``schedule_at_ticks``'s
        ``seq``."""
        if n < 0:
            raise ConfigError(f"cannot reserve {n} sequence numbers")
        first = self._seq
        self._seq = first + n
        return first

    def schedule_at_ticks(
        self, ticks: int, fn: Callback, *, seq: Optional[int] = None
    ) -> None:
        """Exact-tick scheduling (refresh policies compute integer window
        starts and must not round-trip them through floats). ``seq``, a
        number from :meth:`reserve`, breaks ties in place of the next
        free one; each reserved number is used at most once."""
        if ticks < self.clock.now_ticks():
            raise ConfigError(
                f"cannot schedule event in the past: t={ticks_to_ns(ticks)}"
                f" ns < now={self.clock.now_ns()} ns"
            )
        if seq is None:
            seq = self._seq
            self._seq = seq + 1
        elif not 0 <= seq < self._seq:
            raise ConfigError(f"sequence number {seq} was not handed out")
        heapq.heappush(self._heap, (ticks, seq, fn))

    def schedule(self, t_ns: float, fn: Callback) -> None:
        """Schedule ``fn`` at absolute simulated time ``t_ns``."""
        self.schedule_at_ticks(ns_to_ticks(t_ns), fn)

    def schedule_after(self, dt_ns: float, fn: Callback) -> None:
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
        return self._drain(None, 1) == 1

    def run_until(self, t_ns: float) -> int:
        """Drain events with timestamp <= ``t_ns``; returns how many
        fired. The clock is left at the last fired event, not pushed to
        the horizon — callers that need the horizon time advance
        explicitly."""
        return self._drain(ns_to_ticks(t_ns), None)

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the whole heap (bounded by ``max_events`` if given)."""
        return self._drain(None, max_events)

    def _drain(self, limit: Optional[int], budget: Optional[int]) -> int:
        """The one drain loop: fire events in (tick, seq) order up to tick
        ``limit``, at most ``budget`` of them (``None``: no bound)."""
        heap, clock = self._heap, self.clock
        fired = 0
        while budget is None or fired < budget:
            if not heap:
                self._last_fn = None  # a drained scheduler holds no callback
                break
            if limit is not None and heap[0][0] > limit:
                break
            ticks, _, fn = heapq.heappop(heap)
            # The drain owns the timeline: it moves ``clock._ticks`` itself.
            if ticks < clock._ticks:
                raise ConfigError(
                    f"clock at {clock.now_ns()} ns is past the next event at"
                    f" {ticks_to_ns(ticks)} ns: callback {self._last_fn!r}"
                    " left it there; run modelled work inside CLOCK.scoped()"
                )
            self._last_fn = fn
            while True:
                clock._ticks = ticks
                ticks = fn()
                fired += 1
                if ticks is None:
                    break
                # The successor takes the next free seq, above every queued
                # one: it runs first exactly when its tick is below the head's.
                seq = self._seq
                self._seq = seq + 1
                if ticks < clock._ticks:
                    raise ConfigError(
                        f"callback {fn!r} returned a successor in the past;"
                        " run modelled work inside CLOCK.scoped()"
                    )
                if heap and ticks >= heap[0][0] or fired == budget or (
                    limit is not None and ticks > limit
                ):
                    heapq.heappush(heap, (ticks, seq, fn))
                    break
        return fired
