"""Co-run interference models (system S10, Fig. 11).

* :mod:`~repro.interference.cache` — a real set-associative LRU cache
  simulator (substrate/ground truth) plus the analytic shared-LLC
  apportioning used by the co-run model.
* :mod:`~repro.interference.bandwidth` — channel-utilization bookkeeping
  and the loaded-latency curve.
* :mod:`~repro.interference.corun` — the Fig. 11 experiment: SPEC-like
  workloads co-running with SFM antagonists under Baseline-CPU,
  Host-Lockout-NMA, and XFM configurations.
"""
