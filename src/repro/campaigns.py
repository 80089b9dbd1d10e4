"""The campaign driver: every campaign the CLI runs, in one table.

Each campaign command (``chaos``, ``fleet``, ``replay``, ``slo``,
``trace``, ``tiers``) is one :class:`Campaign` in :data:`CAMPAIGNS`;
:func:`run` drives any of them, and its session writes the report next
to ``trace.json`` and ``metrics.json`` (DESIGN.md §7 lists the files).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.errors import ConfigError, ScenarioError
from repro.fleet import harness
from repro.resilience import chaos
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.sim.context import current, run_context
from repro.telemetry.session import TelemetrySession

# ``run_fleet`` loads this table, so only the fleet and chaos modules
# load with it (``argparse`` only for type checking); the other
# campaigns import theirs when they run.
if TYPE_CHECKING:
    #: A command's parsed arguments.
    from argparse import Namespace as Args


class Campaign(NamedTuple):
    """How the CLI configures, drives, judges and prints one campaign.
    ``config(args)`` returns the runs the arguments ask for, as
    ``(config, out_dir)`` pairs (``trace`` runs one per workload), and
    raises :class:`~repro.errors.ConfigError` on a usage error."""

    name: str
    #: The report file :func:`run` writes, or ``None`` for none.
    report_name: Optional[str]
    config: Callable[[Args], List[Tuple[object, Optional[Path]]]]
    drive: Callable[[object, TelemetrySession], object]
    ok: Callable[[object, Args], bool]
    format: Callable[[object], str]


def run(
    campaign: Campaign, config: object, out_dir: Optional[object] = None
) -> Tuple[object, List[Path]]:
    """Drive one campaign in its own session, under the config's
    ``fault_plan`` and ``validate`` (or the enclosing validation);
    returns the report and every file written, flight dumps included."""
    plan = getattr(config, "fault_plan", None)
    faults = {} if plan is None else {"injector": FaultInjector(plan)}
    validate = getattr(config, "validate", False) or current().validation
    session = TelemetrySession(out_dir=out_dir)
    with session, run_context(validation=validate, **faults):
        report = campaign.drive(config, session)
        if campaign.report_name is not None:
            session.attach_report(campaign.report_name, report)
    return report, session.written


def _one_run(build: Callable[[Args], object]):
    """``config`` of a campaign that runs once, into ``--out``."""
    return lambda args: [(build(args), Path(args.out) if args.out else None)]


def _fleet_config(args: Args) -> harness.FleetConfig:
    if args.expect_shed and args.expect_no_shed:
        raise ConfigError("--expect-shed and --expect-no-shed conflict")
    scale, kill_ms = args.duration_scale, args.kill_shard_at_ms
    return harness.FleetConfig(
        seed=args.seed, shards=args.fleet_shards,
        steady_rate_rps=args.rate_rps, spike_multiplier=args.spike_multiplier,
        steady_ns=60e6 * scale, spike_ns=30e6 * scale,
        drain_guard_ns=10e6 * scale, recovery_ns=60e6 * scale,
        kill_shard_at_ns=None if kill_ms is None else kill_ms * 1e6,
    )


# -- replay and slo -----------------------------------------------------------


class ReplayConfig(NamedTuple):
    """One ``replay`` or ``slo`` run: a trace against a tier config,
    optionally under a chaos fault plan."""

    trace: object  # a ScenarioTrace
    backend: str
    fault_plan: Optional[FaultPlan] = None
    validate: bool = False
    #: ``slo`` only: the simulated-time window objectives close on.
    window_ns: float = 15000.0


def _replay_config(args: Args, **extra) -> ReplayConfig:
    """The trace ``replay``/``slo`` asked for, against ``--backend``."""
    from repro.scenarios.format import ScenarioTrace
    from repro.scenarios.zoo import SCENARIOS, load_scenario

    trace_file = getattr(args, "trace_file", None)
    scenario = args.scenario or getattr(args, "scenario_option", None)
    if trace_file is None and scenario is None:
        raise ConfigError(
            f"needs one scenario name (have: {', '.join(sorted(SCENARIOS))})"
            + (" or --trace-file PATH" if hasattr(args, "trace_file") else "")
        )
    try:
        trace = (
            ScenarioTrace.load(trace_file) if trace_file is not None
            else load_scenario(scenario)
        )
    except ScenarioError as exc:
        raise ConfigError(f"unusable trace: {exc}")
    profile, seed = args.fault_profile, args.fault_seed
    plan = None if profile is None else chaos.fault_plan_for(profile, seed)
    return ReplayConfig(trace, args.backend, plan, **extra)


def _slo_config(args: Args) -> ReplayConfig:
    window_ns = args.window_ns
    if not (window_ns > 0 and math.isfinite(window_ns)):
        raise ConfigError(
            f"--window-ns must be finite and > 0, got {window_ns}"
        )
    return _replay_config(args, window_ns=window_ns)


def _drive_replay(config: ReplayConfig, session: TelemetrySession) -> dict:
    from repro.scenarios.replayer import TraceReplayer
    from repro.tiering.factory import make_tier

    target = make_tier(config.backend, registry=session.registry)
    return TraceReplayer(
        config.trace, target, backend_name=config.backend, session=session
    ).run().as_dict()


def _default_objectives(target) -> List[object]:
    """SLOs from the target's modeled latencies: stores within 2x the
    top tier's swap-out (cascades blow it — that is the point), loads
    within 1.5x the mid tier's swap-in (a DFM round trip violates it)
    and 99.9% availability for a pipeline; 2x each way for a flat tier.
    """
    from repro.telemetry.slo import AvailabilityObjective, LatencyObjective

    tiers = getattr(target, "tiers", None)
    if tiers is None:
        tier_name, top, mid, load_factor = target.tier_name, target, target, 2
    else:
        tier_name, top, mid, load_factor = "pipeline", tiers[0], tiers[1], 1.5
    objectives: List[object] = [
        LatencyObjective(
            "store-latency", op="store", tier=tier_name, target=0.95,
            threshold_ns=2.0 * top.swap_latency_s("out") * 1e9,
        ),
        LatencyObjective(
            "load-latency", op="load", tier=tier_name, target=0.95,
            threshold_ns=load_factor * mid.swap_latency_s("in") * 1e9,
        ),
    ]
    if tiers is not None:
        errors = ("tier_errors", "data_loss_events")
        totals = ("stores", "loads", "prefetch_loads")
        objectives.append(AvailabilityObjective(
            "availability", target=0.999,
            bad_metrics=tuple(f"tier_pipeline.{n}" for n in errors),
            total_metrics=tuple(f"tier_pipeline.{n}" for n in totals),
        ))
    return objectives


def _drive_slo(config: ReplayConfig, session: TelemetrySession) -> dict:
    from repro.scenarios.replayer import TraceReplayer
    from repro.sfm.page import PAGE_SIZE
    from repro.telemetry.slo import SloEngine
    from repro.tiering.factory import make_tier

    # The goldens' 40-page pipeline split: small upper tiers force the
    # demotion cascades and cross-tier fetches that make the latency
    # distributions (and the burn report) non-trivial.
    target = make_tier(
        config.backend, capacity_bytes=40 * PAGE_SIZE,
        registry=session.registry,
    )
    with run_context(injector=None):  # as the replayer's AMAT query
        engine = SloEngine(
            session.registry, _default_objectives(target),
            window_ns=config.window_ns,
        )
    report = TraceReplayer(
        config.trace, target, backend_name=config.backend, session=session,
        slo_engine=engine,
    ).run()
    return {
        "scenario": report.scenario,
        "backend": report.backend,
        "latency_percentiles": report.latency_percentiles,
        "slo": engine.as_dict(),
    }


def _format_replay(doc: dict) -> str:
    from repro.scenarios.replayer import format_report

    return format_report(doc)


def _format_slo(doc: dict) -> str:
    from repro.analysis.report import format_latency_table

    slo = doc["slo"]
    lines = [
        f"slo: scenario={doc['scenario']} backend={doc['backend']}",
        format_latency_table(
            doc["latency_percentiles"],
            title="latency percentiles (op-class x tier)",
        ),
        "",
        f"slo summary ({len(slo['windows'])} window results, "
        f"window={slo['window_ns']:.0f} ns):",
    ]
    for name, row in slo["summary"].items():
        lines.append(
            f"  {name:16s}: target={row['target']:.3f} "
            f"attainment={row['attainment']:.4f} "
            f"worst_burn={row['worst_burn']:.2f} "
            f"violated_windows={row['windows_violated']}/{row['windows']} "
            f"[{'met' if row['met'] else 'VIOLATED'}]"
        )
    return "\n".join(lines)


# -- traced workloads ---------------------------------------------------------


def _trace_runs(args: Args) -> List[Tuple[str, Path]]:
    """One run per workload; several get one sub-directory each."""
    out, workloads = Path(args.out or "trace-out"), args.workloads
    return [(w, out / w if len(workloads) > 1 else out) for w in workloads]


def _drive_trace(workload: str, session: TelemetrySession) -> dict:
    from repro.telemetry.runner import WORKLOADS

    summary = WORKLOADS[workload](session)
    return {"title": f"trace workload: {workload}", "summary": summary}


def _drive_tiers(config: object, session: TelemetrySession) -> dict:
    from repro.analysis.report import format_tier_stats
    from repro.telemetry.runner import tiers_demo

    summary, pipeline = tiers_demo(session)
    return {
        "title": "tier pipeline demo: cpu-zswap -> xfm -> dfm",
        "summary": summary,
        "tables": ["", format_tier_stats(pipeline, title="per-tier counters")],
    }


def _format_summary(report: dict) -> str:
    """A traced workload's title, its summary one key per line, then any
    tables."""
    lines = [report["title"]]
    lines += [f"  {k:24s}: {v}" for k, v in report["summary"].items()]
    return "\n".join(lines + report.get("tables", []))


CAMPAIGNS: Dict[str, Campaign] = {
    "chaos": Campaign(
        "chaos", "chaos_report.json",
        _one_run(lambda args: chaos.ChaosConfig(
            args.seed, args.ops, args.profile, validate=args.validation
        )),
        chaos.drive, chaos.campaign_ok, chaos.format_report,
    ),
    "fleet": Campaign(
        "fleet", "fleet_report.json", _one_run(_fleet_config), harness.drive,
        harness.campaign_ok, harness.format_report,
    ),
    "replay": Campaign(
        "replay", "replay_report.json",
        _one_run(lambda args: _replay_config(args, validate=args.validation)),
        _drive_replay, lambda report, args: report["clean"], _format_replay,
    ),
    "slo": Campaign(
        "slo", "slo_report.json",
        _one_run(_slo_config),
        _drive_slo,
        lambda report, args: not args.fail_on_violation or all(
            row["met"] for row in report["slo"]["summary"].values()
        ),
        _format_slo,
    ),
    "trace": Campaign(
        "trace", None, _trace_runs, _drive_trace,
        lambda report, args: True, _format_summary,
    ),
    "tiers": Campaign(
        "tiers", None, _one_run(lambda args: None), _drive_tiers,
        lambda report, args: True, _format_summary,
    ),
}
