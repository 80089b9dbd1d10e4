"""Deterministic discrete-event scheduler over the shared SimClock.

A minimal DES core: a binary heap of timestamped events with **stable
tie-breaking** — events scheduled for the same instant fire in the
order they were scheduled (a monotone sequence number breaks heap
ties), so a run is a pure function of the schedule regardless of heap
internals or hash order. The heap holds ``(ticks, seq, event)`` tuples,
so ordering is a C tuple compare; ``seq`` is unique, so the event
itself is never compared.

Event lifecycle (see DESIGN.md §11):

1. ``schedule(t_ns, fn)`` / ``schedule_after(dt_ns, fn)`` enqueue a
   callback; scheduling strictly in the past raises.
2. ``step()`` pops the earliest event, sets the clock **to the event's
   timestamp**, then runs the callback. Callbacks may schedule further
   events (self-rescheduling handlers are the idiom the refresh
   policies use to emit their window streams). A callback that
   *advances* the shared clock past later events is fine: the
   scheduler owns the timeline, so the next ``step()`` snaps the clock
   back to that event's exact tick — chain successors *before* doing
   clock-advancing work (see ``RefreshScheduler.schedule_windows``).
3. ``run_until(t_ns)`` drains events up to a horizon; ``cancel()``
   marks an event dead without disturbing the heap (lazy deletion).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.clock import CLOCK, SimClock, ns_to_ticks, ticks_to_ns


class Event:
    """One scheduled callback; returned by ``schedule*`` for cancelling."""

    __slots__ = ("ticks", "fn", "cancelled")

    def __init__(self, ticks: int, fn: Callable[[], None]) -> None:
        self.ticks = ticks
        self.fn = fn
        self.cancelled = False

    @property
    def t_ns(self) -> float:
        return ticks_to_ns(self.ticks)


class EventScheduler:
    """Heap of timestamped events draining against a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else CLOCK
        #: (ticks, seq, event): time first, then schedule order.
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self.fired = 0

    # -- enqueue -------------------------------------------------------------

    def schedule_at_ticks(
        self, ticks: int, fn: Callable[[], None]
    ) -> Event:
        """Exact-tick scheduling (refresh policies compute integer window
        starts and must not round-trip them through floats)."""
        if ticks < self.clock.now_ticks():
            raise ConfigError(
                f"cannot schedule event in the past: t={ticks_to_ns(ticks)}"
                f" ns < now={self.clock.now_ns()} ns"
            )
        event = Event(ticks, fn)
        heapq.heappush(self._heap, (ticks, self._seq, event))
        self._seq += 1
        return event

    def schedule(self, t_ns: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute simulated time ``t_ns``."""
        return self.schedule_at_ticks(ns_to_ticks(t_ns), fn)

    def schedule_after(self, dt_ns: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at ``now + dt_ns`` (dt >= 0)."""
        if dt_ns < 0:
            raise ConfigError(f"schedule_after needs dt >= 0, got {dt_ns}")
        return self.schedule_at_ticks(
            self.clock.now_ticks() + ns_to_ticks(dt_ns), fn
        )

    def cancel(self, event: Event) -> None:
        """Mark ``event`` dead; it is skipped when it reaches the top."""
        event.cancelled = True

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _, _, e in self._heap if not e.cancelled)

    def peek_ns(self) -> Optional[float]:
        """Timestamp of the next live event, or None when drained."""
        self._drop_cancelled()
        return ticks_to_ns(self._heap[0][0]) if self._heap else None

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)

    # -- drain ---------------------------------------------------------------

    def step(self) -> bool:
        """Run the earliest event (clock jumps to its timestamp); returns
        False when no live events remain."""
        self._drop_cancelled()
        if not self._heap:
            return False
        ticks, _, event = heapq.heappop(self._heap)
        self.clock.set_ticks(ticks)
        self.fired += 1
        event.fn()
        return True

    def run_until(self, t_ns: float, inclusive: bool = True) -> int:
        """Drain events with timestamp <= ``t_ns`` (or strictly < when
        ``inclusive=False``); returns how many fired. The clock is left
        at the last fired event, not pushed to the horizon — callers
        that need the horizon time advance explicitly."""
        limit = ns_to_ticks(t_ns)
        fired = 0
        while True:
            self._drop_cancelled()
            if not self._heap:
                break
            head = self._heap[0][0]
            if head > limit or (not inclusive and head >= limit):
                break
            self.step()
            fired += 1
        return fired

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the whole heap (bounded by ``max_events`` if given)."""
        fired = 0
        while (max_events is None or fired < max_events) and self.step():
            fired += 1
        return fired
