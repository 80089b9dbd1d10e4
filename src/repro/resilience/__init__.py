"""Deterministic fault injection and the machinery that survives it.

The package mirrors the layering of :mod:`repro.validation`:

- :mod:`repro.resilience.faults` — zero-cost-when-disabled injection
  hooks (`injection_enabled()` / `fire()`) with seeded per-site
  schedules so campaigns replay exactly.
- :mod:`repro.resilience.retry` — bounded retry with simulated-time
  backoff for transient :class:`~repro.errors.DeviceFault` conditions.
- :mod:`repro.resilience.integrity` — per-blob content digests backing
  verified recovery on swap-in.
- :mod:`repro.resilience.breaker` — the per-tier closed/open/half-open
  circuit breaker used by :class:`~repro.tiering.pipeline.TierPipeline`.
- :mod:`repro.resilience.chaos` — the ``python -m repro chaos`` campaign
  harness (it pulls in the tiering stack).

The package imports none of its modules, so loading one loads no
sibling: import names from the module that defines them.
"""
