"""The deterministic fleet campaign behind ``python -m repro fleet``.

One campaign = one :class:`TelemetrySession` (clock rebased to t=0,
tracing on) driving four phases of open-loop traffic through the
sharded frontend::

    steady  -> spike (rate x spike_multiplier) -> drain guard -> recovery

Every request's terminal state is classified by the phase its (latest)
submission landed in; the *drain* guard phase exists so backlog shed in
the instants after the spike ends is not charged against recovery —
the acceptance bar is "spike sheds, recovery is shed-free, admitted
p99 stays bounded".

Every served store is acknowledged to a
:class:`~repro.validation.shadow.ShadowOracle`: served loads are checked
against it on the spot and a final sweep proves zero acknowledged-data
loss (including across a chaos shard kill). SLOs are
evaluated in simulated-time windows during the run; the first violated
window per objective triggers a flight-recorder black-box dump
(``flight_slo_burn*.json``). Everything — arrivals, admission, service
order, the report JSON — is a pure function of the config, so repeat
runs are byte-identical.
"""

from __future__ import annotations

# Unused here; benchmarks/e2e/layers.py swaps it (ROADMAP item 4b).
import json  # noqa: F401
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, OverloadError, RetryBudgetExhausted
from repro.fleet.admission import TenantQuota
from repro.fleet.frontend import FleetFrontend
from repro.fleet.shard import FleetRequest
from repro.fleet.traffic import (
    OPS,
    TENANT_KEY_STRIDE,
    ArrivalColumns,
    TrafficPhase,
    generate_arrivals,
    page_for,
)
from repro.sim import CLOCK as _sim_clock
from repro.sim.clock import ns_to_ticks
from repro.sim.events import EventScheduler
from repro.telemetry import flightrec as _flightrec
from repro.telemetry.session import TelemetrySession
from repro.telemetry.slo import (
    AvailabilityObjective,
    LatencyObjective,
    SloEngine,
)
from repro.validation.shadow import ShadowOracle

PHASES = ("steady", "spike", "drain", "recovery")

TENANTS = 3
QUEUE_DEPTH = 8
#: Per-request completion deadline. Loose enough that steady-state
#: Poisson bursts never trip it, tight enough that under overload
#: deadline shedding — not unbounded queueing — bounds the tail of
#: what the fleet *does* serve.
DEADLINE_NS = 200_000.0
DIURNAL_AMPLITUDE = 0.1
STORE_FRACTION = 0.55
#: Tenant rate quota = fair share * headroom. 4x lets enough of a
#: 5x spike through admission to saturate the shards, so all three
#: shed layers fire: rate quotas at the edge, then queue-full and
#: deadline sheds at the overloaded shards.
QUOTA_HEADROOM = 4.0
SLO_WINDOW_NS = 5e6
SLO_STORE_NS = 400_000.0
SLO_LOAD_NS = 250_000.0
SLO_TARGET = 0.95


@dataclass(frozen=True)
class FleetConfig:
    """One campaign's knobs — all deterministic inputs."""

    seed: int = 0
    shards: int = 4
    steady_rate_rps: float = 35_000.0
    spike_multiplier: float = 5.0
    steady_ns: float = 60e6
    spike_ns: float = 30e6
    drain_guard_ns: float = 10e6
    recovery_ns: float = 60e6
    #: Simulated instant to chaos-kill shard 0 (None = no kill).
    kill_shard_at_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigError("need at least one shard")
        if self.spike_multiplier < 1.0:
            raise ConfigError("spike_multiplier must be >= 1")
        if min(self.steady_ns, self.spike_ns, self.drain_guard_ns,
               self.recovery_ns) <= 0:
            raise ConfigError("phase durations must be positive")

    @property
    def total_ns(self) -> float:
        return (
            self.steady_ns + self.spike_ns + self.drain_guard_ns
            + self.recovery_ns
        )

    def phase_at(self, t_ns: float) -> str:
        if t_ns < self.steady_ns:
            return "steady"
        if t_ns < self.steady_ns + self.spike_ns:
            return "spike"
        if t_ns < self.steady_ns + self.spike_ns + self.drain_guard_ns:
            return "drain"
        return "recovery"


def _quantiles(latencies: List[float]) -> Dict[str, int]:
    """Nearest-rank percentiles, rounded to integer ns (byte-stable).

    ``fleet_report.json`` pins these exact ranks. The registry's
    :class:`~repro.telemetry.quantiles.QuantileHistogram` reports
    geometric bucket midpoints instead, so folding the fleet onto it
    would move all three pinned fleet report SHA-256s.
    """
    if not latencies:
        return {"p50": 0, "p90": 0, "p99": 0, "p999": 0}
    ordered = sorted(latencies)
    out = {}
    for label, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99),
                     ("p999", 0.999)):
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        out[label] = int(round(ordered[idx]))
    return out


class _Campaign:
    """Mutable state of one run (the harness's client + bookkeeper)."""

    def __init__(self, config: FleetConfig, session: TelemetrySession) -> None:
        self.config = config
        self.session = session
        self.scheduler = EventScheduler()
        self.tenant_names = tuple(f"tenant-{i}" for i in range(TENANTS))
        fair_share_rps = config.steady_rate_rps / TENANTS
        quotas = tuple(
            TenantQuota(
                name=name,
                rate_per_s=fair_share_rps * QUOTA_HEADROOM,
                burst=max(8.0, fair_share_rps * 0.002),
                qos="premium" if i == 0 else "standard",
            )
            for i, name in enumerate(self.tenant_names)
        )
        self.frontend = FleetFrontend(
            tuple(f"shard-{i}" for i in range(config.shards)),
            quotas,
            self.scheduler,
            registry=session.registry,
            queue_depth=QUEUE_DEPTH,
        )
        self.frontend.on_complete = self._finish
        #: Acknowledged stores awaiting load-back.
        self.oracle = ShadowOracle()
        #: Per-tenant keys resident and not claimed by an in-flight load
        #: (append order = store order, so the tail is hottest).
        self.live_keys: Dict[str, List[int]] = {
            name: [] for name in self.tenant_names
        }
        self.store_counters: Dict[str, int] = {
            name: 0 for name in self.tenant_names
        }
        self.key_rng = random.Random(config.seed + 1)
        self.retry_rng = random.Random(config.seed + 2)
        self.next_rid = 0
        self.phase_tallies: Dict[str, Dict[str, int]] = {
            p: {
                "offered": 0, "served": 0, "shed": 0, "failed": 0,
                "retries": 0,
            }
            for p in PHASES
        }
        self.phase_latencies: Dict[str, List[float]] = {p: [] for p in PHASES}
        self.engine = SloEngine(
            session.registry,
            [
                LatencyObjective(
                    name="fleet-store-latency", op="store", tier="fleet",
                    threshold_ns=SLO_STORE_NS, target=SLO_TARGET,
                ),
                LatencyObjective(
                    name="fleet-load-latency", op="load", tier="fleet",
                    threshold_ns=SLO_LOAD_NS, target=SLO_TARGET,
                ),
                AvailabilityObjective(
                    name="fleet-availability",
                    target=SLO_TARGET,
                    bad_metrics=("fleet.shed",),
                    total_metrics=("fleet.requests",),
                ),
            ],
            window_ns=SLO_WINDOW_NS,
        )
        self._slo_burned: set = set()
        self._seen_windows = 0

    # -- key lifecycle -------------------------------------------------------

    def _claim_load_key(self, tenant: str) -> Optional[int]:
        """Pick (and remove) a resident key, skewed toward the hottest
        (most recently stored) end of the tenant's live list."""
        keys = self.live_keys[tenant]
        if not keys:
            return None
        u = self.key_rng.random()
        idx_from_end = int(len(keys) * (u * u))  # quadratic skew -> hot
        return keys.pop(len(keys) - 1 - min(idx_from_end, len(keys) - 1))

    def _release_key(self, tenant: str, key: int) -> None:
        self.live_keys[tenant].append(key)

    # -- open-loop arrivals --------------------------------------------------

    def start_arrivals(self, arrivals: ArrivalColumns) -> None:
        """Schedule the first of ``arrivals``; each schedules the next
        when it fires. Their sequence numbers are reserved here, so
        every tie with another event breaks as it would if all of them
        were scheduled now."""
        self._arrivals = arrivals
        self._arrival_count = len(arrivals)
        self._arrival_seq = self.scheduler.reserve(self._arrival_count)
        self._next_arrival = 0
        if self._arrival_count:
            self.scheduler.schedule_at_ticks(
                ns_to_ticks(arrivals.t_ns[0]), self._arrive,
                seq=self._arrival_seq,
            )

    def _arrive(self) -> None:
        arrivals = self._arrivals
        index = self._next_arrival
        self._next_arrival = following = index + 1
        if following < self._arrival_count:
            self.scheduler.schedule_at_ticks(
                ns_to_ticks(arrivals.t_ns[following]), self._arrive,
                seq=self._arrival_seq + following,
            )
        self.arrival(
            arrivals.tenants[arrivals.tenant[index]], OPS[arrivals.op[index]]
        )

    # -- request lifecycle ---------------------------------------------------

    def arrival(self, tenant: str, op: str) -> None:
        now = _sim_clock.now_ns()
        if op == "load":
            key = self._claim_load_key(tenant)
            if key is None:
                op = "store"  # nothing resident yet: warm up instead
        if op == "store":
            key = (
                self.tenant_names.index(tenant) * TENANT_KEY_STRIDE
                + self.store_counters[tenant]
            )
            self.store_counters[tenant] += 1
        req = FleetRequest(
            rid=self.next_rid,
            tenant=tenant,
            op=op,
            key=key,
            arrival_ns=now,
            deadline_ns=now + DEADLINE_NS,
            data=page_for(self.config.seed, key) if op == "store" else None,
        )
        self.next_rid += 1
        self._offer(req)

    def _offer(self, req: FleetRequest) -> None:
        phase = self.config.phase_at(req.arrival_ns)
        self.phase_tallies[phase]["offered"] += 1
        if req.attempt > 0:
            self.phase_tallies[phase]["retries"] += 1
        try:
            self.frontend.submit(req)
        except OverloadError:
            self._finish(req)

    def _finish(self, req: FleetRequest) -> None:
        phase = self.config.phase_at(req.arrival_ns)
        tally = self.phase_tallies[phase]
        if req.status == "served":
            tally["served"] += 1
            self.phase_latencies[phase].append(req.done_ns - req.arrival_ns)
            if req.op == "store":
                self.oracle.ack(req.key, req.data)
                self._release_key(req.tenant, req.key)
            else:
                self.oracle.check(req.key, req.result, phase)
        elif req.status == "shed":
            tally["shed"] += 1
            if req.op == "load":
                self._release_key(req.tenant, req.key)
            self._maybe_retry(req)
        else:  # failed
            tally["failed"] += 1
            if req.op == "load":
                if req.reason in ("missing", "corrupted"):
                    self.oracle.lost(req.key)
                else:
                    # Transient (tier-unavailable): still resident.
                    self._release_key(req.tenant, req.key)

    def _maybe_retry(self, req: FleetRequest) -> None:
        if req.attempt > 0:
            return
        retry_after = max(req.retry_after_ns, 10_000.0)
        try:
            self.frontend.charge_retry(retry_after_ns=retry_after)
        except RetryBudgetExhausted:
            return
        # Seeded jitter so synchronized sheds don't re-stampede.
        delay = retry_after * (1.0 + 0.2 * self.retry_rng.random())
        self.scheduler.schedule_after(delay, lambda r=req: self._resubmit(r))

    def _resubmit(self, req: FleetRequest) -> None:
        if req.op == "load":
            keys = self.live_keys[req.tenant]
            if req.key in keys:
                keys.remove(req.key)
            else:
                return  # page already loaded/claimed by someone else
        now = _sim_clock.now_ns()
        req.attempt += 1
        req.arrival_ns = now
        req.deadline_ns = now + DEADLINE_NS
        req.status = "pending"
        req.reason = ""
        req.shard = ""
        self._offer(req)

    # -- periodic control ----------------------------------------------------

    def tick(self) -> None:
        now = _sim_clock.now_ns()
        horizon = self.config.total_ns + 2 * SLO_WINDOW_NS
        if now < horizon:
            # Chain the next control tick (the evaluation below does not
            # move the clock).
            self.scheduler.schedule_after(
                self.frontend.brownout.config.window_ns, self.tick
            )
        self.frontend.brownout.evaluate_window()
        self.engine.tick(now)
        self._check_burn()

    def _check_burn(self) -> None:
        for window in self.engine.windows[self._seen_windows:]:
            target = self.engine._target_for(window.objective)
            if (
                window.attainment < target
                and window.objective not in self._slo_burned
            ):
                self._slo_burned.add(window.objective)
                _flightrec.trigger(
                    _flightrec.REASON_SLO_BURN,
                    {
                        "objective": window.objective,
                        "window": window.index,
                        "attainment": round(window.attainment, 4),
                        "burn_rate": round(window.burn_rate(target), 2),
                    },
                )
        self._seen_windows = len(self.engine.windows)


def run_fleet(
    config: FleetConfig, out_dir: Optional[object] = None
) -> Dict[str, object]:
    """Run one campaign; returns the byte-stable report, which lands as
    ``fleet_report.json`` in ``out_dir`` when it is set."""
    from repro.campaigns import CAMPAIGNS, run

    return run(CAMPAIGNS["fleet"], config, out_dir)[0]


def drive(config: FleetConfig, session: TelemetrySession) -> Dict[str, object]:
    """The campaign body, inside its session; returns the report and
    annotates ``metrics.json`` with its verdict."""
    campaign = _Campaign(config, session)
    scheduler = campaign.scheduler
    arrivals = generate_arrivals(
        phases=(
            TrafficPhase("steady", config.steady_ns, 1.0),
            TrafficPhase("spike", config.spike_ns, config.spike_multiplier),
            TrafficPhase("drain", config.drain_guard_ns, 1.0),
            TrafficPhase("recovery", config.recovery_ns, 1.0),
        ),
        base_rate_rps=config.steady_rate_rps,
        tenant_shares={name: 1.0 for name in campaign.tenant_names},
        store_fraction=STORE_FRACTION,
        seed=config.seed,
        diurnal_amplitude=DIURNAL_AMPLITUDE,
    )
    campaign.start_arrivals(arrivals)
    scheduler.schedule_after(
        campaign.frontend.brownout.config.window_ns, campaign.tick
    )
    failover_stats: Dict[str, int] = {}
    if config.kill_shard_at_ns is not None:
        scheduler.schedule(
            config.kill_shard_at_ns,
            lambda: failover_stats.update(
                campaign.frontend.kill_shard("shard-0")
            ),
        )
    # Safety bound far above any legitimate schedule (each request costs
    # O(1) events; ticks are linear in the horizon). Hitting it would
    # leave a report over a partial run, so it is an error.
    max_events = 20 * len(arrivals) + 1_000_000
    scheduler.run(max_events=max_events)
    if len(scheduler):
        raise ConfigError(
            f"fleet campaign stopped at its safety bound of {max_events}"
            f" events with {len(scheduler)} still scheduled"
        )
    now = _sim_clock.now_ns()
    campaign.engine.finalize(now)
    campaign._check_burn()
    # Every acknowledged page must still come back byte-identical
    # through the (post-failover) fleet.
    sweep = campaign.oracle.sweep(campaign.frontend.lookup)
    report = _build_report(
        config, campaign, sweep, failover_stats, len(arrivals)
    )
    session.annotate("fleet", report["verdict"])
    # Break the fleet's callback cycles: the campaign, its fleet and the
    # session's ring are freed as soon as the caller drops them.
    campaign.frontend.close()
    return report


def _build_report(
    config: FleetConfig,
    campaign: _Campaign,
    sweep: Dict[str, int],
    failover_stats: Dict[str, int],
    arrivals: int,
) -> Dict[str, object]:
    frontend, oracle = campaign.frontend, campaign.oracle
    # Per-tenant, per-reason, retry, brownout and relocation counts are
    # read from the registry counters the fleet exports, not recounted.
    registry = frontend.registry
    phases: Dict[str, object] = {}
    for phase in PHASES:
        tally = campaign.phase_tallies[phase]
        offered = tally["offered"]
        phases[phase] = {
            **tally,
            "shed_rate": round(tally["shed"] / offered, 6) if offered else 0.0,
            "latency_ns": _quantiles(campaign.phase_latencies[phase]),
        }
    offered = registry.totals("fleet.requests", "tenant")
    served = registry.totals("fleet.served", "tenant")
    shed = registry.totals("fleet.shed", "tenant")
    tenants: Dict[str, object] = {}
    goodputs: List[float] = []
    for name in campaign.tenant_names:
        goodput = served.get(name, 0)
        goodputs.append(goodput)
        tenants[name] = {
            "offered": offered.get(name, 0),
            "served": goodput,
            "shed": shed.get(name, 0),
            "goodput_rps": round(goodput / (config.total_ns / 1e9), 2),
        }
    fairness = (
        round(max(goodputs) / min(goodputs), 4) if min(goodputs) else 0.0
    )
    total_ns = max(_sim_clock.now_ns(), config.total_ns)
    residency_ns = frontend.brownout.total_residency_ns()
    degraded_ops = sum(s.degraded_ops for s in frontend.shards.values())
    recovery_sheds = campaign.phase_tallies["recovery"]["shed"]
    spike_sheds = campaign.phase_tallies["spike"]["shed"]
    budget = frontend.retry_budget.snapshot()
    report: Dict[str, object] = {
        "schema": 1,
        "config": {
            "seed": config.seed,
            "shards": config.shards,
            "tenants": TENANTS,
            "queue_depth": QUEUE_DEPTH,
            "deadline_ns": DEADLINE_NS,
            "steady_rate_rps": config.steady_rate_rps,
            "spike_multiplier": config.spike_multiplier,
            "phase_ns": {
                "steady": config.steady_ns,
                "spike": config.spike_ns,
                "drain": config.drain_guard_ns,
                "recovery": config.recovery_ns,
            },
            "retries": True,
            "brownout": True,
            "kill_shard_at_ns": config.kill_shard_at_ns,
        },
        "arrivals": arrivals,
        "phases": phases,
        "tenants": tenants,
        "fairness": {
            "max_min_goodput_ratio": fairness,
        },
        "shedding": {
            "by_reason": registry.totals("fleet.shed", "reason"),
            "spike_sheds": spike_sheds,
            "recovery_sheds": recovery_sheds,
        },
        "retry_budget": {
            **budget,
            "retries_scheduled": budget["spent"],
            "fast_fails": budget["refused"],
        },
        "brownout": {
            **frontend.brownout.snapshot(),
            "residency_fraction": round(residency_ns / total_ns, 6),
            "degraded_ops": degraded_ops,
        },
        "failover": {
            **failover_stats,
            "relocated_pages_total": registry.value("fleet.relocated_pages"),
        },
        "slo": campaign.engine.summary(),
        "sweep": sweep,
        "verdict": {
            "spike_shed": bool(spike_sheds > 0),
            "recovery_clean": bool(recovery_sheds == 0),
            "acked_data_lost": sweep["lost"] + oracle.explicit_losses,
            "silent_corruptions": oracle.silent_corruptions,
            "slo_met": {
                name: summary["met"]
                for name, summary in campaign.engine.summary().items()
            },
        },
        "flight_records": list(campaign.session.flight.dump_names),
    }
    return report


def campaign_ok(report: Dict[str, object], args) -> bool:
    """The CLI's exit verdict on a report. Data integrity always;
    ``--expect-shed`` asserts the overload contract (the spike sheds,
    recovery is shed-free, admitted spike p99 within 3x the steady p99);
    ``--expect-no-shed`` asserts a steady campaign sheds nothing;
    ``--fail-on-slo-violation`` requires every SLO met."""
    verdict, phases = report["verdict"], report["phases"]
    ok = verdict["acked_data_lost"] == 0
    ok = ok and verdict["silent_corruptions"] == 0
    if args.expect_shed:
        ok = ok and verdict["spike_shed"] and verdict["recovery_clean"]
        ok = ok and (
            phases["spike"]["latency_ns"]["p99"]
            <= 3 * phases["steady"]["latency_ns"]["p99"]
        )
    if args.expect_no_shed:
        ok = ok and sum(phases[p]["shed"] for p in phases) == 0
    if args.fail_on_slo_violation:
        ok = ok and all(verdict["slo_met"].values())
    return bool(ok)


def format_report(report: Dict[str, object]) -> str:
    """Human-readable campaign summary for the CLI."""
    lines: List[str] = []
    cfg = report["config"]
    lines.append(
        f"fleet campaign: seed={cfg['seed']} shards={cfg['shards']} "
        f"tenants={cfg['tenants']} rate={cfg['steady_rate_rps']:.0f}/s "
        f"spike=x{cfg['spike_multiplier']}"
    )
    lines.append(f"  arrivals: {report['arrivals']}")
    for phase in PHASES:
        p = report["phases"][phase]
        lat = p["latency_ns"]
        lines.append(
            f"  {phase:9s}: offered={p['offered']:6d} served={p['served']:6d}"
            f" shed={p['shed']:5d} (rate={p['shed_rate']:.3f})"
            f" p50={lat['p50']} p99={lat['p99']} p999={lat['p999']}"
        )
    lines.append("  tenants:")
    for name, t in report["tenants"].items():
        lines.append(
            f"    {name:10s}: offered={t['offered']:6d} "
            f"served={t['served']:6d} shed={t['shed']:5d} "
            f"goodput={t['goodput_rps']:.0f}/s"
        )
    lines.append(
        f"  fairness max/min goodput ratio: "
        f"{report['fairness']['max_min_goodput_ratio']}"
    )
    brown = report["brownout"]
    lines.append(
        f"  brownout: entries={brown['entries']} "
        f"residency={brown['residency_fraction']:.3f} "
        f"degraded_ops={brown['degraded_ops']}"
    )
    budget = report["retry_budget"]
    lines.append(
        f"  retries: scheduled={budget['retries_scheduled']} "
        f"spent={budget['spent']} refused={budget['refused']} "
        f"fast_fails={budget['fast_fails']}"
    )
    if cfg["kill_shard_at_ns"] is not None:
        lines.append(f"  failover: {report['failover']}")
    lines.append("  slo:")
    for name, summary in report["slo"].items():
        lines.append(
            f"    {name:22s}: met={summary['met']} "
            f"attainment={summary['attainment']:.4f} "
            f"worst_burn={summary['worst_burn']:.2f}"
        )
    verdict = report["verdict"]
    lines.append(
        f"  verdict: spike_shed={verdict['spike_shed']} "
        f"recovery_clean={verdict['recovery_clean']} "
        f"acked_data_lost={verdict['acked_data_lost']} "
        f"silent_corruptions={verdict['silent_corruptions']}"
    )
    return "\n".join(lines)
