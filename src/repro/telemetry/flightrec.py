"""Flight recorder: a bounded black box that dumps on failure.

Trace rings answer questions you knew to ask before the run; the flight
recorder answers the one you didn't — *what were the last N things that
happened before it broke?* While it is the run context's ``flight``
field (:mod:`repro.sim.context`; ``TelemetrySession`` installs one
automatically) it shadows every trace emission into a small bounded
deque, and when a failure trigger fires — a circuit breaker opening, a
``CorruptedBlobError`` poisoning a page, the chaos oracle detecting
loss — it writes ``flight_<reason>.json`` containing the recent events,
the simulated time of the trigger, and the delta of every registry
counter since the recorder was installed. Repeat triggers get numbered
files (``flight_breaker_open_2.json``) so a cascading failure keeps
every snapshot. Without an ``out_dir`` a trigger only records the dump's
name (:attr:`FlightRecorder.dump_names`); no document is built.

Trigger sites call :func:`trigger`, which is a no-op (one field read)
when no recorder is installed, so the failure paths stay dependency-free
and cost nothing outside a session.
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.errors import ConfigError
from repro.sim import context as _context
from repro.sim.clock import CLOCK as _sim_clock
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.trace import TraceEvent

#: Canonical trigger reason codes.
REASON_BREAKER_OPEN = "breaker_open"
REASON_POISON = "poison"
REASON_CHAOS_LOSS = "chaos_loss"
REASON_SLO_BURN = "slo_burn"

FLIGHT_SCHEMA_VERSION = 1


def _event_dict(event: TraceEvent) -> Dict[str, object]:
    record: Dict[str, object] = {
        "name": event.name,
        "ph": event.ph,
        "ts_ns": event.ts_ns,
        "track": event.track,
    }
    if event.dur_ns is not None:
        record["dur_ns"] = event.dur_ns
    if event.args:
        record["args"] = dict(event.args)
    return record


def _numeric_snapshot(registry: MetricsRegistry) -> Dict[str, float]:
    """Scalar metrics only — histogram dicts don't delta cleanly."""
    return {
        key: float(value)
        for key, value in registry.snapshot().items()
        if isinstance(value, (int, float))
    }


class FlightRecorder:
    """Bounded recorder of recent trace events plus metric deltas."""

    def __init__(
        self,
        capacity: int = 512,
        registry: Optional[MetricsRegistry] = None,
        out_dir: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.registry = registry
        self.out_dir = out_dir
        #: The recent events; :func:`~repro.telemetry.trace.emit` appends
        #: here and counts :attr:`appended`.
        self.sink: Deque[TraceEvent] = deque(maxlen=capacity)
        self.appended = 0
        self._baseline: Dict[str, float] = (
            _numeric_snapshot(registry) if registry is not None else {}
        )
        #: reason -> number of dumps written for it so far.
        self._dump_counts: Dict[str, int] = {}
        #: paths of every dump file written (empty when out_dir is unset).
        self.dumps: List[str] = []
        #: filenames of every dump, whether or not it reached disk.
        self.dump_names: List[str] = []

    @property
    def dropped(self) -> int:
        """Events that fell out of the bounded window."""
        return self.appended - len(self.sink)

    # -- dumping -----------------------------------------------------------

    def metric_deltas(self) -> Dict[str, float]:
        if self.registry is None:
            return {}
        deltas: Dict[str, float] = {}
        for key, value in _numeric_snapshot(self.registry).items():
            delta = value - self._baseline.get(key, 0.0)
            if delta:
                deltas[key] = delta
        return deltas

    def document(
        self, reason: str, detail: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        return {
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "detail": dict(detail) if detail else {},
            "t_ns": _sim_clock.now_ns(),
            "events_recorded": len(self.sink),
            "events_dropped": self.dropped,
            "events": [_event_dict(e) for e in self.sink],
            "metric_deltas": self.metric_deltas(),
        }

    def trigger(
        self, reason: str, detail: Optional[Dict[str, object]] = None
    ) -> str:
        """Name a dump and, when an ``out_dir`` is configured, build its
        document and write it as ``flight_<reason>.json``. Returns the
        dump filename."""
        n = self._dump_counts.get(reason, 0) + 1
        self._dump_counts[reason] = n
        filename = (
            f"flight_{reason}.json" if n == 1 else f"flight_{reason}_{n}.json"
        )
        self.dump_names.append(filename)
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
            path = os.path.join(self.out_dir, filename)
            with open(path, "w") as fh:
                json.dump(
                    self.document(reason, detail), fh, indent=2,
                    sort_keys=True,
                )
            self.dumps.append(path)
        return filename


def trigger(
    reason: str, detail: Optional[Dict[str, object]] = None
) -> Optional[str]:
    """Fire a failure trigger; no-op when no recorder is installed.

    Failure paths (breaker transitions, page poisoning, the chaos
    oracle) call this unconditionally — the disabled cost is one field
    read on paths that are already rare.
    """
    recorder = _context._current.flight
    if recorder is None:
        return None
    return recorder.trigger(reason, detail)
