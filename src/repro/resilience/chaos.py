"""Seeded chaos campaigns over the 3-tier pipeline.

``python -m repro chaos`` drives the canonical CPU-zswap -> XFM -> DFM
:class:`~repro.tiering.pipeline.TierPipeline` through a store/load/
promote mix while a :class:`~repro.resilience.faults.FaultInjector`
fires faults at every device-model injection site. Every accepted page
is acknowledged to a :class:`~repro.validation.shadow.ShadowOracle`, so
the campaign can prove the resilience layer's core claim: **no silent
corruption** — every injected corruption is either
detected-and-recovered or surfaced as an explicit poison/data-loss
event, never returned as wrong bytes.

Everything is deterministic in the campaign seed (op mix, page
contents, fault schedule, simulated clock), so the emitted
``chaos_report.json`` is byte-identical across runs with the same
arguments — the report itself is a regression artifact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    ConfigError,
    CorruptedBlobError,
    SfmError,
    TierUnavailableError,
)
from repro.resilience import faults as _faults
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.sfm.page import PAGE_SIZE
from repro.sim import CLOCK as _sim_clock
from repro.sim.context import current
from repro.telemetry.session import TelemetrySession
from repro.tiering.pipeline import TierPipeline
from repro.tiering.policy import LruDemotion
from repro.validation.shadow import ShadowOracle
from repro.workloads.corpus import page_for

#: Simulated nanoseconds between workload operations (keeps trace
#: timestamps, and therefore reports, deterministic).
_OP_TICK_NS = 1_000.0

#: Tier capacities sized so demotion cascades + DFM traffic happen.
_UPPER_TIER_BYTES = 16 * 1024
_DFM_BYTES = 256 * 1024

#: Check breaker states / drain quarantined tiers every N ops.
_HEALTH_CHECK_EVERY = 32

#: Recoverable-only schedule: every fault here must be healed by
#: retry/fallback with zero data loss (the CI smoke gate).
TRANSIENT_PROFILE: Tuple[FaultSpec, ...] = (
    FaultSpec(_faults.DFM_LINK_ERROR, probability=0.05),
    FaultSpec(_faults.DFM_LATENCY_SPIKE, probability=0.03, magnitude=8.0),
    FaultSpec(_faults.NMA_TIMEOUT, probability=0.03),
    FaultSpec(_faults.DRIVER_LOST_DOORBELL, probability=0.02),
    FaultSpec(_faults.DRIVER_REG_CORRUPTION, probability=0.01),
    FaultSpec(_faults.DRIVER_SPM_FULL, probability=0.03),
    FaultSpec(_faults.DRIVER_QUEUE_FULL, probability=0.03),
    FaultSpec(_faults.SPM_READ_FLIP, probability=0.02),
    FaultSpec(_faults.ZPOOL_READ_CORRUPTION, probability=0.03),
)

#: Full schedule: adds persistent media corruption, so poison/data-loss
#: events are expected — but every one must still be *detected*.
FULL_PROFILE: Tuple[FaultSpec, ...] = TRANSIENT_PROFILE + (
    FaultSpec(_faults.ZPOOL_MEDIA_CORRUPTION, probability=0.02),
)

PROFILES: Dict[str, Tuple[FaultSpec, ...]] = {
    "transient": TRANSIENT_PROFILE,
    "full": FULL_PROFILE,
}


def fault_plan_for(profile: str, seed: int = 0) -> FaultPlan:
    """Seeded :class:`FaultPlan` for a named profile (shared by the
    chaos campaign and the scenario replayer's chaos-replay mode)."""
    if profile not in PROFILES:
        raise ConfigError(
            f"unknown chaos profile {profile!r}; have {sorted(PROFILES)}"
        )
    return FaultPlan(seed=seed, specs=PROFILES[profile])


@dataclass(frozen=True)
class ChaosConfig:
    """One campaign's knobs (all deterministic inputs)."""

    seed: int = 0
    ops: int = 400
    profile: str = "transient"
    validate: bool = False

    def __post_init__(self) -> None:
        fault_plan_for(self.profile)  # an unknown profile raises
        if self.ops <= 0:
            raise ConfigError("ops must be positive")

    @property
    def fault_plan(self) -> FaultPlan:
        return fault_plan_for(self.profile, self.seed)


def run_chaos(
    config: ChaosConfig,
    out_dir: Optional[object] = None,
) -> Dict[str, object]:
    """Run one seeded campaign; returns the report, which lands as
    ``chaos_report.json`` in ``out_dir`` when it is set."""
    from repro.campaigns import CAMPAIGNS, run

    return run(CAMPAIGNS["chaos"], config, out_dir)[0]


def drive(config: ChaosConfig, session: TelemetrySession) -> Dict[str, object]:
    """The campaign body, inside its session and a run context whose
    injector fires ``config.fault_plan`` (see :func:`repro.campaigns.run`)."""
    injector = current().injector
    #: Pages no tier would hold fall back to the "real swap device".
    swap_device: Dict[int, bytes] = {}

    pipeline = TierPipeline.build(
        cpu_capacity_bytes=_UPPER_TIER_BYTES,
        xfm_capacity_bytes=_UPPER_TIER_BYTES,
        dfm_capacity_bytes=_DFM_BYTES,
        registry=session.registry,
        demotion=LruDemotion(watermark_fraction=0.5),
        spill=lambda vaddr, data: swap_device.__setitem__(vaddr, data),
        breaker_config=BreakerConfig(),
    )

    oracle = ShadowOracle()
    rng = random.Random(config.seed)

    counters = {
        "stores": 0,
        "stores_accepted": 0,
        "stores_rejected": 0,
        "loads": 0,
        "loads_from_spill": 0,
        "promotes": 0,
        "tier_unavailable_errors": 0,
        "drains_triggered": 0,
    }
    next_key = 0

    def do_store() -> None:
        nonlocal next_key
        key = next_key
        next_key += 1
        data = page_for(config.seed, key)
        counters["stores"] += 1
        if pipeline.store(key, data):
            oracle.ack(key, data)
            counters["stores_accepted"] += 1
        else:
            counters["stores_rejected"] += 1

    def load_and_check(key: int, phase: str) -> None:
        """One acknowledged page back through the pipeline: intact, or
        failing *loudly*."""
        counters["loads"] += 1
        try:
            data = pipeline.load(key)
        except TierUnavailableError:
            # Transient: the key is still mapped; retry next time.
            counters["tier_unavailable_errors"] += 1
            return
        except CorruptedBlobError:
            # Explicit, detected loss — the opposite of silent.
            oracle.lost(key)
            return
        except SfmError:
            # The page was spilled to the backing device mid-cascade.
            data = swap_device.get(key * PAGE_SIZE)
            counters["loads_from_spill"] += 1
        oracle.check(key, data, phase)

    def do_promote(key: int) -> None:
        counters["promotes"] += 1
        try:
            pipeline.promote_key(key)
        except CorruptedBlobError:
            oracle.lost(key)

    for op in range(config.ops):
        _sim_clock.advance_ns(_OP_TICK_NS)
        roll = rng.random()
        if roll < 0.55:
            do_store()
        elif oracle:
            key = rng.choice(oracle.keys())
            if roll < 0.9:
                load_and_check(key, "load")
            else:
                do_promote(key)
        if (op + 1) % _HEALTH_CHECK_EVERY == 0:
            for name, state in pipeline.breaker_states().items():
                if state == "open":
                    counters["drains_triggered"] += 1
                    pipeline.drain_tier(name, limit=8)

    for key in oracle.keys():
        load_and_check(key, "final_sweep")
    # The oracle's verdicts under the report's names.
    counters["loads_ok"] = oracle.verified
    counters["data_loss_errors"] = oracle.explicit_losses
    counters["silent_corruptions"] = oracle.silent_corruptions

    for name, tier in pipeline.tiers_by_name().items():
        session.add_stats(f"tier.{name}", tier.stats)
    session.add_stats("pipeline", pipeline.pipeline_stats)

    merged = pipeline.stats
    pstats = pipeline.pipeline_stats
    detected = merged.corruptions_detected
    recovered = merged.corruptions_recovered
    report: Dict[str, object] = {
        "schema": 1,
        "config": {
            "seed": config.seed,
            "ops": config.ops,
            "profile": config.profile,
            "validation": config.validate,
        },
        "faults": {
            "total_fires": injector.total_fires,
            "by_site": injector.summary(),
        },
        "workload": dict(sorted(counters.items())),
        "recovery": {
            "corruptions_detected": detected,
            "corruptions_recovered": recovered,
            "poison_pages": merged.poison_pages,
            "device_faults": merged.device_faults,
            "transient_retries": merged.transient_retries,
            "cpu_fallbacks_device_fault": merged.fallbacks_device_fault,
            "data_loss_events": pstats.data_loss_events,
            "quarantine_skips": pstats.quarantine_skips,
            "tier_errors": pstats.tier_errors,
            "drained_pages": pstats.drained_pages,
            "spill_callback_errors": pstats.spill_callback_errors,
        },
        "breakers": {
            name: breaker.snapshot()
            for name, breaker in zip(pipeline.tier_names, pipeline.breakers)
        },
        "verdict": {
            "silent_corruptions": counters["silent_corruptions"],
            # Every detection must be accounted for: recovered, or
            # surfaced as an explicit poison/loss.
            "all_detections_accounted": bool(
                detected
                <= recovered + merged.poison_pages + pstats.data_loss_events
            ),
            "clean": bool(counters["silent_corruptions"] == 0),
        },
        # Black-box dumps the campaign triggered (breaker-open, poison,
        # chaos-loss); filenames only so the report stays byte-stable
        # regardless of out_dir.
        "flight_records": list(session.flight.dump_names),
    }
    return report


def campaign_ok(report: Dict[str, object], args) -> bool:
    """The CLI's exit verdict on a report: nothing silent and every
    detection accounted for; ``--fail-on-loss`` (the transient-profile
    gate) also refuses explicit losses and poisoned pages."""
    verdict = report["verdict"]
    ok = verdict["clean"] and verdict["all_detections_accounted"]
    if args.fail_on_loss:
        recovery = report["recovery"]
        ok = ok and not recovery["data_loss_events"]
        ok = ok and not recovery["poison_pages"]
    return bool(ok)


def format_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a campaign report for the CLI."""
    lines: List[str] = []
    cfg = report["config"]
    lines.append(
        f"chaos campaign: seed={cfg['seed']} ops={cfg['ops']} "
        f"profile={cfg['profile']}"
    )
    faults = report["faults"]
    lines.append(f"  faults fired: {faults['total_fires']}")
    for site, count in faults["by_site"].items():
        lines.append(f"    {site:24s}: {count}")
    for section in ("workload", "recovery"):
        lines.append(f"  {section}:")
        for key, value in report[section].items():
            lines.append(f"    {key:24s}: {value}")
    lines.append("  breakers:")
    for name, snap in report["breakers"].items():
        lines.append(
            f"    {name:12s}: state={snap['state']} "
            f"error_rate={snap['error_rate']} "
            f"transitions={snap['transitions']}"
        )
    verdict = report["verdict"]
    lines.append(
        f"  verdict: clean={verdict['clean']} "
        f"silent_corruptions={verdict['silent_corruptions']} "
        f"all_detections_accounted={verdict['all_detections_accounted']}"
    )
    return "\n".join(lines)
