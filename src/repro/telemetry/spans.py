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

from typing import Dict, NamedTuple, Optional

from repro.sim import context as _context
from repro.sim.clock import CLOCK as _sim_clock
from repro.telemetry.trace import PH_COMPLETE, PH_INSTANT, TraceRing, emit


def current_span_id() -> Optional[int]:
    """Id of the innermost open span, or None outside any span."""
    stack = _context._current.ring.open_spans
    return stack[-1] if stack else None


class SpanHandle(NamedTuple):
    """An open span; pass back to :func:`end` to close and emit it.
    It closes against the open-span stack of the ring that opened it."""

    span_id: int
    parent_id: Optional[int]
    name: str
    track: str
    start_ns: float
    args: Optional[Dict[str, object]]
    ring: TraceRing


#: Builds a :class:`SpanHandle` from its fields without a Python call.
_new_handle = tuple.__new__


def begin(
    name: str, track: str, args: Optional[Dict[str, object]] = None
) -> SpanHandle:
    """Open a span at the current simulated time under the innermost
    open span (if any) and push it on the stack."""
    ring = _context._current.ring
    stack = ring.open_spans
    span_id = ring.next_span_id
    ring.next_span_id = span_id + 1
    handle = _new_handle(SpanHandle, (
        span_id, stack[-1] if stack else None, name, track,
        _sim_clock.now_ns(), args, ring,
    ))
    stack.append(span_id)
    return handle


def end(
    handle: SpanHandle, extra: Optional[Dict[str, object]] = None
) -> float:
    """Close ``handle``, emit it as a complete event, return duration.

    Spans close innermost-first; if callers leak an inner span the stack
    is unwound to the handle being closed so the tree stays consistent.
    """
    span_id = handle.span_id
    stack = handle.ring.open_spans
    while stack and stack[-1] != span_id:
        stack.pop()
    if stack:
        stack.pop()
    start_ns = handle.start_ns
    dur_ns = _sim_clock.now_ns() - start_ns
    parent_id = handle.parent_id
    args: Dict[str, object] = (
        {"span": span_id} if parent_id is None
        else {"span": span_id, "parent": parent_id}
    )
    if handle.args:
        args.update(handle.args)
    if extra:
        args.update(extra)
    emit(handle.name, PH_COMPLETE, handle.track, start_ns, dur_ns, args)
    return dur_ns


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
    span_id = ring.next_span_id
    ring.next_span_id = span_id + 1
    stack = ring.open_spans
    full: Dict[str, object] = (
        {"span": span_id, "parent": stack[-1]} if stack else {"span": span_id}
    )
    if args:
        full.update(args)
    emit(name, PH_COMPLETE, track, start_ns, dur_ns, full)
    return span_id


def instant_under(
    name: str,
    track: str,
    ts_ns: Optional[float] = None,
    args: Optional[Dict[str, object]] = None,
) -> None:
    """Emit an instant tagged with the innermost open span's id."""
    stack = _context._current.ring.open_spans
    full: Dict[str, object] = {"parent": stack[-1]} if stack else {}
    if args:
        full.update(args)
    emit(name, PH_INSTANT, track, ts_ns, None, full or None)
