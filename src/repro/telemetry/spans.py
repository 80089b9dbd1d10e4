"""Nested operation spans: causality trees over the trace ring.

The flat :mod:`repro.telemetry.trace` events answer *what happened
when*; spans answer *why*. A span is a Chrome ``X`` (complete) event
carrying two extra args — ``span`` (its own id) and ``parent`` (the id
of the span that was open when it began) — so one pipeline ``store``
exports with its tier rejects, demotion rounds, NMA offload
windows, and CPU fallbacks hanging off it as a tree. Perfetto renders
the nesting by timestamp on each track; the ids make the causality
exact even across tracks (a ``cpu_compress`` on the ``cpu`` track knows
which ``tier_store`` on the ``tiering`` track caused it).

Zero-cost discipline is the same as the rest of the telemetry layer:
every call site guards behind :func:`repro.telemetry.trace.tracing_enabled`,
so the functions here assume a ring is installed in the run context
(:mod:`repro.sim.context`). This module keeps no state: the id counter
and the open-span stack live on that :class:`~repro.telemetry.trace.TraceRing`,
so ids are unique within one exported trace, a fresh ring starts at
id 1, and a nested session's spans never disturb the outer ring's.

Timestamps are simulated time, read from the shared
:data:`repro.sim.CLOCK`, so a span's duration is however far the
simulated clock advanced between
:func:`begin` and :func:`end` — i.e. the modeled cost of the work done
inside it, not wall time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.sim import context as _context
from repro.sim.clock import CLOCK as _sim_clock
from repro.telemetry import trace as _trace
from repro.telemetry.trace import TraceRing


def _new_span_id(ring: TraceRing) -> int:
    span_id = ring.next_span_id
    ring.next_span_id = span_id + 1
    return span_id


def current_span_id() -> Optional[int]:
    """Id of the innermost open span, or None outside any span."""
    stack = _context._current.ring.open_spans
    return stack[-1] if stack else None


class SpanHandle:
    """An open span; pass back to :func:`end` to close and emit it.
    It closes against the open-span stack of the ring that opened it."""

    __slots__ = (
        "span_id", "parent_id", "name", "track", "start_ns", "args", "ring"
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        track: str,
        start_ns: float,
        args: Optional[Dict[str, object]],
        ring: TraceRing,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.start_ns = start_ns
        self.args = args
        self.ring = ring


def begin(
    name: str, track: str, args: Optional[Dict[str, object]] = None
) -> SpanHandle:
    """Open a span at the current simulated time under the innermost
    open span (if any) and push it on the stack."""
    ring = _context._current.ring
    stack = ring.open_spans
    span_id = _new_span_id(ring)
    handle = SpanHandle(
        span_id=span_id,
        parent_id=stack[-1] if stack else None,
        name=name,
        track=track,
        start_ns=_sim_clock.now_ns(),
        args=args,
        ring=ring,
    )
    stack.append(span_id)
    return handle


def end(
    handle: SpanHandle, extra: Optional[Dict[str, object]] = None
) -> float:
    """Close ``handle``, emit it as a complete event, return duration.

    Spans close innermost-first; if callers leak an inner span the stack
    is unwound to the handle being closed so the tree stays consistent.
    """
    stack = handle.ring.open_spans
    while stack and stack[-1] != handle.span_id:
        stack.pop()
    if stack:
        stack.pop()
    end_ns = _sim_clock.now_ns()
    dur_ns = end_ns - handle.start_ns
    args: Dict[str, object] = {"span": handle.span_id}
    if handle.parent_id is not None:
        args["parent"] = handle.parent_id
    if handle.args:
        args.update(handle.args)
    if extra:
        args.update(extra)
    _trace.complete(
        handle.name, handle.track, handle.start_ns, dur_ns, args=args
    )
    return dur_ns


@contextmanager
def span(
    name: str, track: str, args: Optional[Dict[str, object]] = None
) -> Iterator[SpanHandle]:
    """Scoped span; closes (and emits) on exit, including on error."""
    handle = begin(name, track, args)
    try:
        yield handle
    finally:
        end(handle)


def emit_under(
    name: str,
    track: str,
    start_ns: float,
    dur_ns: float,
    args: Optional[Dict[str, object]] = None,
) -> int:
    """Stamp a leaf complete-event with a fresh span id parented to the
    innermost open span.

    This is how the backends' existing device events (``cpu_compress``,
    ``nma_compress``, DFM link transfers) join the tree without
    restructuring their emission sites: same event, plus causality ids.
    Returns the allocated span id.
    """
    ring = _context._current.ring
    span_id = _new_span_id(ring)
    full: Dict[str, object] = {"span": span_id}
    if ring.open_spans:
        full["parent"] = ring.open_spans[-1]
    if args:
        full.update(args)
    _trace.complete(name, track, start_ns, dur_ns, args=full)
    return span_id


def instant_under(
    name: str,
    track: str,
    ts_ns: Optional[float] = None,
    args: Optional[Dict[str, object]] = None,
) -> None:
    """Emit an instant tagged with the innermost open span's id."""
    full: Dict[str, object] = {}
    parent = current_span_id()
    if parent is not None:
        full["parent"] = parent
    if args:
        full.update(args)
    _trace.instant(name, track, ts_ns=ts_ns, args=full or None)
