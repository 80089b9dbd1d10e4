"""TelemetrySession: one run's trace ring + metrics registry + export.

The session is the user-facing bundle: entering it opens one
:func:`~repro.sim.context.run_context` with its own bounded ring (so
tracing is on and span ids start at 1) and flight recorder (see
:mod:`repro.telemetry.flightrec`), and rebases the shared simulated
clock (:data:`repro.sim.CLOCK`) to t=0. It also carries a fresh
metrics registry. Exiting restores the enclosing context and the
outer clock ticks, so sessions nest.
``write()`` — called automatically on exit when ``out_dir`` is set —
produces

* ``trace.json``  — Chrome trace-event JSON (open in Perfetto or
  ``about:tracing``), compact, one event per line, streamed straight
  from the ring by :func:`~repro.telemetry.trace.write_chrome_trace`,
  and
* ``metrics.json`` — the registry snapshot plus every stats object
  attached with :meth:`add_stats`,

plus any report attached with :meth:`attach_report` and the
``flight_<reason>.json`` black boxes the run dumped (:attr:`written`).

Ring capacity defaults to 65536 events; override per session with the
``ring_capacity`` kwarg or process-wide with the ``REPRO_TRACE_RING``
environment variable (the kwarg wins). Events shed by ring overflow are
exported as the ``trace.ring_dropped`` registry gauge, and the events of
trace windows a sampler left out (a fleet shard keeps one served
request in :data:`~repro.fleet.shard.TRACE_SAMPLE_EVERY`) as
``trace.sampled_out``, so a truncated or sampled trace is visible from
``metrics.json`` alone.

The benchmark harness wraps measured runs in a session so
``BENCH_perf.json`` runs can optionally attach traces; every campaign
runs in one (:func:`repro.campaigns.run`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.context import run_context
from repro.telemetry.flightrec import FlightRecorder
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.stats import Stats
from repro.telemetry.trace import TraceRing, write_chrome_trace

#: Environment variable overriding the default ring capacity.
RING_CAPACITY_ENV = "REPRO_TRACE_RING"
DEFAULT_RING_CAPACITY = 65536


def _default_ring_capacity() -> int:
    raw = os.environ.get(RING_CAPACITY_ENV)
    if raw is None:
        return DEFAULT_RING_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        raise ConfigError(
            f"{RING_CAPACITY_ENV} must be an integer, got {raw!r}"
        )
    return capacity


class TelemetrySession:
    """Context manager owning one run's trace ring and registry."""

    def __init__(
        self,
        out_dir: Optional[object] = None,
        ring_capacity: Optional[int] = None,
    ) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        if ring_capacity is None:
            ring_capacity = _default_ring_capacity()
        self.ring = TraceRing(ring_capacity)
        self.registry = MetricsRegistry()
        self.flight = FlightRecorder(
            registry=self.registry,
            out_dir=str(self.out_dir) if self.out_dir is not None else None,
        )
        self._stats: Dict[str, Stats] = {}
        self._annotations: Dict[str, object] = {}
        self._report: Optional[Tuple[str, object]] = None
        #: Every file the session wrote, in :meth:`write`'s order.
        self.written: List[Path] = []
        self._scope = None

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "TelemetrySession":
        self._scope = run_context(
            ring=self.ring, flight=self.flight, clock_ns=0.0
        )
        self._scope.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._scope.__exit__(None, None, None)
        self._scope = None
        if self.out_dir is not None and exc_type is None:
            self.written = self.write(self.out_dir)

    # -- metrics attachment ------------------------------------------------

    def add_stats(self, name: str, stats: Stats) -> None:
        """Include a stats object in ``metrics.json`` under ``name``."""
        self._stats[name] = stats

    def annotate(self, key: str, value: object) -> None:
        """Attach a free-form JSON-serialisable block to
        ``metrics.json`` under ``annotations.<key>`` (replay reports,
        campaign verdicts, run provenance, ...)."""
        self._annotations[key] = value

    def attach_report(self, name: str, document: object) -> None:
        """Have :meth:`write` also write ``document`` as JSON ``name``."""
        self._report = (name, document)

    def metrics_document(self) -> Dict[str, object]:
        # Exported as gauges so downstream consumers of metrics.json /
        # CSV see truncation and sampling without parsing the trace
        # block. Set here, at export, so no flight dump moves.
        self.registry.gauge("trace.ring_dropped").set(self.ring.dropped)
        self.registry.gauge("trace.sampled_out").set(self.ring.sampled_out)
        doc: Dict[str, object] = {
            "schema": 1,
            "registry": self.registry.snapshot(),
            "stats": {
                name: stats.as_dict() for name, stats in self._stats.items()
            },
        }
        if self._annotations:
            doc["annotations"] = dict(self._annotations)
        doc["trace"] = {
            "events": len(self.ring),
            "capacity": self.ring.capacity,
            "dropped": self.ring.dropped,
            "sampled_out": self.ring.sampled_out,
        }
        if self.flight.dumps:
            doc["flight_records"] = list(self.flight.dumps)
        return doc

    # -- export ------------------------------------------------------------

    def write(self, out_dir: object) -> List[Path]:
        """Write the attached report, ``trace.json`` and
        ``metrics.json``; returns their paths and the flight dumps'."""
        target = Path(out_dir)
        target.mkdir(parents=True, exist_ok=True)
        written = []
        if self._report is not None:
            name, document = self._report
            written.append(target / name)
            written[-1].write_text(
                json.dumps(document, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        trace_path = target / "trace.json"
        metrics_path = target / "metrics.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            write_chrome_trace(self.ring, fh)
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(self.metrics_document(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written += [trace_path, metrics_path]
        return written + [Path(path) for path in self.flight.dumps]
