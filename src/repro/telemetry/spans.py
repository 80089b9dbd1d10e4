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
and this module keeps no state beyond an id counter and the open-span
stack, both plain module globals.

Timestamps are simulated time, read from the shared
:data:`repro.sim.CLOCK`, so a span's duration is however far the
simulated clock advanced between
:func:`begin` and :func:`end` — i.e. the modeled cost of the work done
inside it, not wall time.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.sim.clock import CLOCK as _sim_clock
from repro.telemetry import trace as _trace

_next_id: int = 1
_stack: List[int] = []


def reset() -> None:
    """Restart ids and drop any open spans (session entry calls this so
    span ids are deterministic per run)."""
    global _next_id
    _next_id = 1
    del _stack[:]


def current_span_id() -> Optional[int]:
    """Id of the innermost open span, or None outside any span."""
    return _stack[-1] if _stack else None


class SpanHandle:
    """An open span; pass back to :func:`end` to close and emit it."""

    __slots__ = ("span_id", "parent_id", "name", "track", "start_ns", "args")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        track: str,
        start_ns: float,
        args: Optional[Dict[str, object]],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.start_ns = start_ns
        self.args = args


def begin(
    name: str, track: str, args: Optional[Dict[str, object]] = None
) -> SpanHandle:
    """Open a span at the current simulated time under the innermost
    open span (if any) and push it on the stack."""
    global _next_id
    span_id = _next_id
    _next_id += 1
    handle = SpanHandle(
        span_id=span_id,
        parent_id=_stack[-1] if _stack else None,
        name=name,
        track=track,
        start_ns=_sim_clock.now_ns(),
        args=args,
    )
    _stack.append(span_id)
    return handle


def end(
    handle: SpanHandle, extra: Optional[Dict[str, object]] = None
) -> float:
    """Close ``handle``, emit it as a complete event, return duration.

    Spans close innermost-first; if callers leak an inner span the stack
    is unwound to the handle being closed so the tree stays consistent.
    """
    while _stack and _stack[-1] != handle.span_id:
        _stack.pop()
    if _stack:
        _stack.pop()
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
    global _next_id
    span_id = _next_id
    _next_id += 1
    full: Dict[str, object] = {"span": span_id}
    if _stack:
        full["parent"] = _stack[-1]
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
    if _stack:
        full["parent"] = _stack[-1]
    if args:
        full.update(args)
    _trace.instant(name, track, ts_ns=ts_ns, args=full or None)
