"""Fleet serving layer: a sharded, overload-robust frontend over
:class:`~repro.tiering.pipeline.TierPipeline`.

The hyperscale framing (ROADMAP item 1, the CXL-adoption and TMTS
papers): far memory is a *service*, and a service survives on how it
behaves at the edge of capacity, not in the middle. This package adds
the machinery that decides viability under pressure:

* :mod:`repro.fleet.frontend` — rendezvous-hash routing across N
  independent pipeline shards, shard kill/failover with
  ``drain_tier``-style page relocation, and the serving counters the
  SLO engine reads.
* :mod:`repro.fleet.admission` — per-tenant token-bucket rate quotas
  and resident-page capacity quotas (shed-before-work).
* :mod:`repro.fleet.shard` — one pipeline shard: bounded queue,
  deadline-aware load shedding, event-chained service pump on the
  shared :class:`~repro.sim.events.EventScheduler`.
* :mod:`repro.fleet.retrybudget` — the global retry-budget governor
  (retries spend a shared budget earned by admitted work; an exhausted
  budget fast-fails instead of amplifying).
* :mod:`repro.fleet.brownout` — degraded-mode controller with
  hysteresis (cheaper static-table codec for degradable tenants,
  demotion-cascade bypass).
* :mod:`repro.fleet.traffic` — open-loop arrival generation
  (Poisson/Zipf mixes, diurnal curves, overload spikes) scheduled as
  events.
* :mod:`repro.fleet.harness` — the deterministic ``python -m repro
  fleet`` campaign: phases, SLOs, flight-recorder dumps on burn, and a
  byte-stable JSON report.

The package imports none of its modules, so loading one loads no
sibling: import names from the module that defines them.
"""
