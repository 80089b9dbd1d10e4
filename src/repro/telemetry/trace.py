"""Structured trace events: zero-cost when disabled, Perfetto when on.

Hot paths guard every emission site behind :func:`tracing_enabled`,
which reads the run context's ``ring`` field (:mod:`repro.sim.context`)
— cheap enough to leave in the swap store path and the emulator's
per-REF loop. While a ring is installed (``with run_context(ring=...):``
or via :class:`~repro.telemetry.session.TelemetrySession`), events are
appended to that bounded ring buffer, which :func:`write_chrome_trace`
streams out as Chrome trace-event JSON, loadable in Perfetto /
``about:tracing``.

Timestamps are **simulated time** in nanoseconds, read from the shared
:data:`repro.sim.CLOCK`. Components that own a timeline (the emulator's
event loop, the functional workloads' window loop) set and advance that
clock directly; :func:`emit` stamps an event with its current time when
the call site has no better timestamp.

Tracks map to Chrome's pid/tid pairs: one track per actor — ``cpu``
(fallback + host swap work), ``nma`` (window-multiplexed accelerator
work), ``driver`` (MMIO/doorbells), and one ``refresh/ch<N>`` track per
channel. Track names become thread names via ``M`` metadata events.
"""

from __future__ import annotations

import json
from collections import deque
from json.encoder import encode_basestring_ascii as _encode
from typing import Deque, Dict, List, NamedTuple, Optional, TextIO

from repro.errors import ConfigError
from repro.sim import context as _context
from repro.sim.clock import CLOCK as _clock

#: Chrome trace-event phase codes used here.
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_METADATA = "M"

#: Well-known track names (tids assigned on first use; these sort first).
TRACK_CPU = "cpu"
TRACK_NMA = "nma"
TRACK_DRIVER = "driver"


def refresh_track(channel: int = 0) -> str:
    """Per-channel refresh-window track name."""
    return f"refresh/ch{channel}"


class TraceEvent(NamedTuple):
    """One trace event; converts 1:1 to a Chrome trace-event dict."""

    name: str
    ph: str
    ts_ns: float
    track: str
    dur_ns: Optional[float] = None
    args: Optional[Dict[str, object]] = None


#: Builds a :class:`TraceEvent` from its six fields without a Python
#: call (the hot path's constructor).
_new_event = tuple.__new__


class TraceRing:
    """Bounded event ring: overflow drops the *oldest* events and counts
    them, so a long run keeps its tail (the part being diagnosed) and
    the export records how much history was shed.

    A ring is also the unit of span numbering: it owns the next span id
    and the stack of open span ids (see :mod:`repro.telemetry.spans`),
    so span ids are unique within one exported trace and a fresh ring
    starts at id 1.

    :meth:`mark` and :meth:`commit` bracket a *trace window*: the events
    emitted in between are held aside, then either enter the ring or
    are counted as :attr:`sampled_out`. A dropped window never evicts
    an event the ring keeps. Windows do not nest."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ConfigError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._window: List[TraceEvent] = []
        #: Where :func:`emit` appends: the ring, or the open window.
        self.sink = self._events
        #: Events appended and not sampled out (the ring's, the open
        #: window's and the ones overflow dropped).
        self.appended = 0
        #: Events of windows that :meth:`commit` did not keep.
        self.sampled_out = 0
        self.next_span_id = 1
        self.open_spans: List[int] = []

    @property
    def dropped(self) -> int:
        """Events the ring shed to overflow."""
        return self.appended - len(self._events) - len(self._window)

    def mark(self) -> None:
        """Open a trace window."""
        if self.sink is self._window:
            raise ConfigError("trace windows do not nest")
        self.sink = self._window

    def commit(self, keep: bool) -> None:
        """Close the open window: its events enter the ring when ``keep``
        is true and are counted as :attr:`sampled_out` otherwise."""
        window = self._window
        if keep:
            self._events.extend(window)
        else:
            self.appended -= len(window)
            self.sampled_out += len(window)
        window.clear()
        self.sink = self._events

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[TraceEvent]:
        return list(self._events)


def tracing_enabled() -> bool:
    """Whether trace emission is active (the hot-path guard)."""
    return _context._current.ring is not None


# -- emission --------------------------------------------------------------

def emit(
    name: str,
    ph: str,
    track: str,
    ts_ns: Optional[float] = None,
    dur_ns: Optional[float] = None,
    args: Optional[Dict[str, object]] = None,
) -> None:
    """Append one event to the active ring and flight recorder (no-op
    when neither is installed).

    Callers on hot paths should guard with :func:`tracing_enabled` so the
    disabled cost is one field read rather than argument packing.
    """
    context = _context._current
    ring = context.ring
    flight = context.flight
    if ring is None and flight is None:
        return
    event = _new_event(TraceEvent, (
        name, ph, _clock.now_ns() if ts_ns is None else ts_ns, track,
        dur_ns, args,
    ))
    if ring is not None:
        ring.sink.append(event)
        ring.appended += 1
    if flight is not None:
        flight.sink.append(event)
        flight.appended += 1


def instant(
    name: str,
    track: str,
    ts_ns: Optional[float] = None,
    args: Optional[Dict[str, object]] = None,
) -> None:
    emit(name, PH_INSTANT, track, ts_ns, None, args)


def complete(
    name: str,
    track: str,
    start_ns: float,
    dur_ns: float,
    args: Optional[Dict[str, object]] = None,
) -> None:
    emit(name, PH_COMPLETE, track, start_ns, dur_ns, args)


def fallback(
    reason: str,
    op: str,
    ts_ns: Optional[float] = None,
    **extra: object,
) -> None:
    """The canonical CPU-fallback instant: ``cpu_fallback`` on the CPU
    track with a machine-readable ``reason`` code (see
    :mod:`repro.telemetry.reasons`) and the op kind
    (``compress``/``decompress``)."""
    args: Dict[str, object] = {"reason": reason, "op": op}
    if extra:
        args.update(extra)
    emit("cpu_fallback", PH_INSTANT, TRACK_CPU, ts_ns, None, args)


# -- Chrome trace-event export ---------------------------------------------

#: Stable tids for the well-known tracks; others assigned from 100.
_FIXED_TIDS = {TRACK_CPU: 1, TRACK_NMA: 2, TRACK_DRIVER: 3}
TRACE_PID = 1

#: Events per ``fh.write`` while streaming a trace.
_WRITE_CHUNK = 4096

#: What :mod:`json` writes for a finite float (subclasses included).
_float_repr = float.__repr__


class _Literals(dict):
    """str -> its JSON string literal, encoded once per distinct string
    (names, phases, arg keys and arg values repeat across a trace)."""

    def __missing__(self, value: str) -> str:
        literal = self[value] = _encode(value)
        return literal


def _json_float(value: float) -> str:
    """``value`` exactly as :mod:`json` writes it: ``float.__repr__``
    when finite, ``NaN``/``Infinity``/``-Infinity`` otherwise."""
    if value - value == 0.0:
        return _float_repr(value)
    return json.dumps(value)


def _json_args(args: Dict[str, object], text: _Literals) -> str:
    """One event's ``args`` object. ``bool``/``int``/``float``/``str``/
    ``None`` values are rendered inline; any other value (a list, a
    dict, an int subclass, ...) or a key that is not a string goes
    through :func:`json.dumps`."""
    parts = []
    for key, value in args.items():
        if type(key) is not str:
            return json.dumps(args, separators=(",", ":"))
        kind = type(value)
        if kind is int:
            rendered = repr(value)
        elif kind is str:
            rendered = text[value]
        elif kind is float:
            rendered = _json_float(value)
        elif value is None:
            rendered = "null"
        elif kind is bool:
            rendered = "true" if value else "false"
        else:
            rendered = json.dumps(value, separators=(",", ":"))
        parts.append(f"{text[key]}:{rendered}")
    return "{" + ",".join(parts) + "}"


def write_chrome_trace(ring: TraceRing, fh: TextIO) -> None:
    """Stream the ring to ``fh`` as a Chrome trace-event JSON document,
    one compact event per line.

    One process (pid 1, named after the reproduction) with one thread
    per track; ``ts``/``dur`` are microseconds per the trace-event spec.
    The first pass over the ring assigns tids in ring order (the fixed
    tracks keep theirs); the second writes the ``M`` metadata records
    (process name, then one thread name per track in tid order) and
    then one line per event in ring order, ``fh.write`` once per
    :data:`_WRITE_CHUNK` events. Parsed with :mod:`json`, the document
    is ``{"traceEvents": [...], "displayTimeUnit": "ns",
    "otherData": {"dropped_events": <int>}}``; ``otherData`` also
    carries ``sampled_out_events`` when the ring sampled any window out.
    """
    events = ring.events()
    tids: Dict[str, int] = {}
    next_dynamic = 100
    for event in events:
        if event.track not in tids:
            tid = _FIXED_TIDS.get(event.track)
            if tid is None:
                tid = next_dynamic
                next_dynamic += 1
            tids[event.track] = tid

    text = _Literals()
    lines = [
        f'{{"name":"process_name","ph":"{PH_METADATA}","ts":0.0,'
        f'"pid":{TRACE_PID},"tid":0,"args":{{"name":"xfm-repro"}}}}'
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        lines.append(
            f'{{"name":"thread_name","ph":"{PH_METADATA}","ts":0.0,'
            f'"pid":{TRACE_PID},"tid":{tid},"args":{{"name":{text[track]}}}}}'
        )
    fh.write('{"traceEvents":[\n')
    separator = ""
    for event in events:
        ph = event.ph
        line = (
            f'{{"name":{text[event.name]},"ph":{text[ph]},'
            f'"ts":{_json_float(event.ts_ns / 1e3)},'
            f'"pid":{TRACE_PID},"tid":{tids[event.track]}'
        )
        if ph == PH_COMPLETE:
            line += f',"dur":{_json_float((event.dur_ns or 0.0) / 1e3)}'
        elif ph == PH_INSTANT:
            line += ',"s":"t"'  # thread-scoped instant
        if event.args:
            line += f',"args":{_json_args(event.args, text)}'
        lines.append(line + "}")
        if len(lines) >= _WRITE_CHUNK:
            fh.write(separator + ",\n".join(lines))
            separator = ",\n"
            lines = []
    if lines:
        fh.write(separator + ",\n".join(lines))
    sampled = (
        f',"sampled_out_events":{ring.sampled_out}' if ring.sampled_out else ""
    )
    fh.write(
        '\n],"displayTimeUnit":"ns",'
        f'"otherData":{{"dropped_events":{ring.dropped}{sampled}}}}}\n'
    )
