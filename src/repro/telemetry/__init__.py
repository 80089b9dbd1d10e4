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

The package imports none of its modules, so loading one loads no
sibling: import names from the module that defines them.
"""
