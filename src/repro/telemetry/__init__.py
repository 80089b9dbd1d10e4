"""Unified telemetry: metrics registry, structured tracing, export.

The layers (see DESIGN.md "Telemetry"):

* :mod:`repro.telemetry.registry` — named counters / gauges /
  fixed-bucket histograms / quantile histograms with labels, read-only
  views of plain stats fields, JSON/CSV snapshots; the home of every
  statistic the stack exports.
* :mod:`repro.telemetry.trace` — zero-cost-when-disabled span/instant
  events with simulated-time timestamps, buffered in a bounded ring and
  streamed out as Chrome trace-event JSON (Perfetto / ``about:tracing``),
  one track per actor (CPU, NMA, driver, per-channel refresh).
* :mod:`repro.telemetry.spans` — nested spans with parent/child
  causality ids over the trace ring, so one pipeline store exports as a
  tree with its demotions, offloads, and fallbacks.
* :mod:`repro.telemetry.quantiles` — HDR-style log-bucketed quantile
  histograms (bounded relative error, mergeable) behind
  ``MetricsRegistry.quantile``; the substrate for p50/p99/p999 tables.
* :mod:`repro.telemetry.slo` — declarative latency/availability
  objectives evaluated over simulated-time windows with burn rates
  (``python -m repro slo``).
* :mod:`repro.telemetry.flightrec` — a bounded black-box recorder that
  dumps ``flight_<reason>.json`` on breaker-open / poison / chaos-loss
  triggers.
* :mod:`repro.telemetry.session` — :class:`TelemetrySession`, the
  per-run bundle that writes ``trace.json`` + ``metrics.json`` (+ any
  flight records).

``python -m repro trace <workload>`` runs an instrumented workload and
exports both files; see :mod:`repro.telemetry.runner`.
"""

from repro.telemetry import flightrec, reasons, spans
from repro.telemetry.flightrec import FlightRecorder
from repro.telemetry.quantiles import STANDARD_QUANTILES, QuantileHistogram
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
)
from repro.telemetry.session import TelemetrySession
from repro.telemetry.slo import (
    AvailabilityObjective,
    LatencyObjective,
    SloEngine,
)
from repro.telemetry.stats import Stats
from repro.telemetry.trace import (
    TRACK_CPU,
    TRACK_DRIVER,
    TRACK_NMA,
    TraceEvent,
    TraceRing,
    complete,
    emit,
    fallback,
    instant,
    refresh_track,
    tracing_enabled,
)

__all__ = [
    "AvailabilityObjective",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LatencyObjective",
    "MetricsRegistry",
    "QuantileHistogram",
    "STANDARD_QUANTILES",
    "SloEngine",
    "Stats",
    "TelemetrySession",
    "TraceEvent",
    "TraceRing",
    "TRACK_CPU",
    "TRACK_DRIVER",
    "TRACK_NMA",
    "complete",
    "default_registry",
    "emit",
    "fallback",
    "flightrec",
    "instant",
    "reasons",
    "refresh_track",
    "spans",
    "tracing_enabled",
]
