"""The five end-to-end workloads (names are fixed; later issues cite them).

Every workload is a pair ``setup(seed, scale, workdir) -> state`` and
``run(state, tracer) -> Outcome``. ``setup`` builds inputs from the seed
and is timed as ``setup_s``; ``run`` holds the timed region, checks every
output it can, and returns host timings next to the deterministic
(simulated) statistics. ``scale`` multiplies the op counts below, which
are sized so that ``scale == 1`` measures for about 15 s on the 2-core
reference sandbox; the amount of work is a pure function of
``(seed, scale)``, never of host speed, so simulated statistics repeat
bit-for-bit.

The program is imported lazily (``import_program``) so that import time
can be measured as part of set-up.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import importlib
import itertools
import json
import random
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

MiB = 1 << 20

#: Seconds of measurement that ``scale == 1`` is sized for.
REFERENCE_SECONDS = 15.0


@dataclass
class Outcome:
    """What one timed run produced."""

    #: Operations attempted (requests offered, store+load calls,
    #: modelled offloads) and how many of them failed a check.
    ops: int
    failed: int
    #: Host wall time of the timed region.
    wall_s: float
    #: Host microseconds per op, one entry per timed unit (a call, a
    #: load+store pair, a campaign, an emulator point).
    unit_us_per_op: List[float]
    #: Simulated statistics under their ISSUE names; a statistic the
    #: workload cannot produce is absent.
    sim: Dict[str, float]
    #: Deterministic outputs the ``sim_digest`` is taken over.
    sim_outputs: object
    #: Output checks that failed (empty = correct).
    problems: List[str] = field(default_factory=list)
    #: Handles the traced run reads per-layer counts from.
    pipelines: list = field(default_factory=list)
    sessions: list = field(default_factory=list)
    fleet_reports: list = field(default_factory=list)
    emulator_reports: list = field(default_factory=list)
    export_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Program modules the workload needs (imported during set-up).
    modules: tuple
    setup: Callable[[int, float, Path], object]
    run: Callable[[object, object], Outcome]


def import_program(workload: Workload) -> None:
    for module in workload.modules:
        importlib.import_module(module)


def sim_digest(outputs: object) -> str:
    """SHA-256 of the canonical JSON of a run's deterministic outputs."""
    canonical = json.dumps(
        outputs, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _activate(tracer, on: bool) -> None:
    if tracer is not None:
        tracer.active = on


# -- fleet ------------------------------------------------------------------


def _fleet_config(seed: int, duration_scale: float, **knobs):
    from repro.fleet.harness import FleetConfig

    base = FleetConfig()
    return FleetConfig(
        seed=seed,
        steady_ns=base.steady_ns * duration_scale,
        spike_ns=base.spike_ns * duration_scale,
        drain_guard_ns=base.drain_guard_ns * duration_scale,
        recovery_ns=base.recovery_ns * duration_scale,
        **knobs,
    )


def _fleet_outcome(configs, reports, walls, problems, export_bytes=0) -> Outcome:
    """Pool campaigns: counts add up, the median campaign gives p50 and
    the worst campaign gives p99 (reports carry no raw latencies)."""
    offered = served = shed = failed = 0
    for report in reports:
        for phase in report["phases"].values():
            offered += phase["offered"]
            served += phase["served"]
            shed += phase["shed"]
            failed += phase["failed"]
        verdict, sweep = report["verdict"], report["sweep"]
        lost = verdict["acked_data_lost"] + sweep["corrupt"]
        corrupt = verdict["silent_corruptions"]
        failed += lost + corrupt
        if lost or corrupt:
            problems.append(
                f"seed {report['config']['seed']}: {lost} pages lost, "
                f"{corrupt} silently corrupted"
            )
    steady = [r["phases"]["steady"]["latency_ns"] for r in reports]
    sim_seconds = sum(c.total_ns for c in configs) / 1e9
    sim = {
        "refused_ratio": shed / offered,
        "sim_p50_ns": statistics.median(s["p50"] for s in steady),
        "sim_p99_ns": max(s["p99"] for s in steady),
        "goodput_rps": served / sim_seconds,
    }
    return Outcome(
        ops=offered,
        failed=failed,
        wall_s=sum(walls),
        unit_us_per_op=[
            wall * 1e6 / sum(p["offered"] for p in report["phases"].values())
            for wall, report in zip(walls, reports)
        ],
        sim=sim,
        sim_outputs=reports,
        problems=problems,
        fleet_reports=reports,
        export_bytes=export_bytes,
    )


def _setup_fleet_spike(seed: int, scale: float, workdir: Path):
    return _fleet_config(seed, 4.0 * scale)


def _run_fleet_spike(config, tracer) -> Outcome:
    from repro.fleet import harness

    _activate(tracer, True)
    begin = perf_counter()
    report = harness.run_fleet(config)
    wall = perf_counter() - begin
    _activate(tracer, False)
    problems = []
    if not report["verdict"]["spike_shed"]:
        problems.append("the 5x spike shed nothing")
    if not report["verdict"]["recovery_clean"]:
        problems.append("recovery phase still shedding")
    outcome = _fleet_outcome([config], [report], [wall], problems)
    if outcome.sim["refused_ratio"] <= 0.1:
        problems.append(
            f"refused_ratio {outcome.sim['refused_ratio']:.4f} <= 0.1"
        )
    return outcome


#: Back-to-back exporting campaigns in ``fleet_steady_export``.
EXPORT_CAMPAIGNS = 4
EXPORT_FILES = ("trace.json", "metrics.json", "fleet_report.json")


def _setup_fleet_steady_export(seed: int, scale: float, workdir: Path):
    configs = [
        _fleet_config(
            seed + i, 1.5 * scale,
            steady_rate_rps=25_000.0, spike_multiplier=1.0,
        )
        for i in range(EXPORT_CAMPAIGNS)
    ]
    out_dirs = [workdir / f"campaign-{i}" for i in range(EXPORT_CAMPAIGNS)]
    for out_dir in out_dirs:
        shutil.rmtree(out_dir, ignore_errors=True)
    return configs, out_dirs


def _run_fleet_steady_export(state, tracer) -> Outcome:
    from repro.fleet import harness

    configs, out_dirs = state
    reports, walls = [], []
    for index, (config, out_dir) in enumerate(zip(configs, out_dirs)):
        if tracer is not None:
            tracer.current_request = index
        _activate(tracer, True)
        begin = perf_counter()
        reports.append(harness.run_fleet(config, out_dir=out_dir))
        walls.append(perf_counter() - begin)
        _activate(tracer, False)
    problems = []
    export_bytes = 0
    for report, out_dir in zip(reports, out_dirs):
        for name in EXPORT_FILES:
            path = out_dir / name
            export_bytes += path.stat().st_size
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
            if name == "fleet_report.json" and document != json.loads(
                json.dumps(report)
            ):
                problems.append(f"{path} differs from the returned report")
            if name == "trace.json" and not document.get("traceEvents"):
                problems.append(f"{path} holds no trace events")
    outcome = _fleet_outcome(configs, reports, walls, problems, export_bytes)
    if outcome.sim["refused_ratio"] > 0.001:
        problems.append(
            f"refused_ratio {outcome.sim['refused_ratio']:.5f} > 0.001 "
            "at a flat 25k req/s"
        )
    return outcome


# -- tiers --------------------------------------------------------------------

#: Pages taken from each of the 16 synthetic corpora.
PAGES_PER_CORPUS = 128
CHURN_OPS = 8000
CHURN_KEYS = 6000
CHURN_STORE_FRACTION = 0.85
REUSE_PAGES = 1024
REUSE_ITERATIONS = 12000
REUSE_ZIPF_S = 0.9


def _corpus_library(seed: int) -> List[bytes]:
    """128 pages from each corpus, interleaved round-robin so every
    stretch of the library holds the full compressibility mix."""
    from repro.workloads.corpus import CORPUS_NAMES, corpus_pages

    per_corpus = [
        corpus_pages(name, PAGES_PER_CORPUS, seed=seed) for name in CORPUS_NAMES
    ]
    return [page for group in zip(*per_corpus) for page in group]


#: Capacity of each of the two compressed top tiers (cpu-zswap, xfm).
TOP_TIER_BYTES = 4 * MiB
PAGE_BYTES = 4096


def _build_pipeline():
    from repro.tiering.pipeline import TierPipeline

    return TierPipeline.build(TOP_TIER_BYTES, TOP_TIER_BYTES, 64 * MiB)


def _tier_session(tracer):
    """Traced tier runs sit under a TelemetrySession: simulated latency
    quantiles exist only there. Counters are identical either way (the
    suite checks)."""
    if tracer is None:
        return None
    from repro.telemetry.session import TelemetrySession

    return TelemetrySession()


def _tier_sim(pipeline, refused: int, stores: int) -> Dict[str, float]:
    stats = pipeline.stats
    sim = {
        "stored_bytes_per_user_byte": (
            stats.bytes_out_compressed / stats.bytes_out_uncompressed
        ),
    }
    if stores:
        sim["refused_ratio"] = refused / stores
    return sim


def _tier_outputs(pipeline) -> Dict[str, object]:
    return {
        "pipeline": pipeline.pipeline_stats.as_dict(),
        "tiers": {
            name: tier.stats.as_dict()
            for name, tier in pipeline.tiers_by_name().items()
        },
    }


def _setup_tier_churn(seed: int, scale: float, workdir: Path):
    return _corpus_library(seed), _build_pipeline(), random.Random(seed), scale


def _run_tier_churn(state, tracer) -> Outcome:
    library, pipeline, rng, scale = state
    total = max(1, round(CHURN_OPS * scale))
    store, load = pipeline.store, pipeline.load
    shadow: Dict[int, bytes] = {}
    resident: List[int] = []  # keys, for O(1) uniform choice
    slot: Dict[int, int] = {}  # key -> index in ``resident``
    cursor = stores = refused = failed = 0
    units: List[float] = []

    def forget(key: int) -> None:
        index = slot.pop(key)
        last = resident.pop()
        if last != key:
            resident[index] = last
            slot[last] = index

    session = _tier_session(tracer)
    with session or nullcontext():
        _activate(tracer, True)
        begin = perf_counter()
        for op in range(total):
            if tracer is not None:
                tracer.current_request = op
            if not resident or rng.random() < CHURN_STORE_FRACTION:
                key = rng.randrange(CHURN_KEYS)
                # The next library page: reuse distance (2048) exceeds the
                # 1024-entry digest cache, so every store is a cache miss.
                data = library[cursor % len(library)]
                cursor += 1
                stores += 1
                t0 = perf_counter()
                accepted = store(key, data)
                units.append(perf_counter() - t0)
                if accepted:
                    if key not in slot:
                        slot[key] = len(resident)
                        resident.append(key)
                    shadow[key] = data
                else:
                    # A refused re-store has dropped the stale copy.
                    refused += 1
                    if key in slot:
                        forget(key)
                        del shadow[key]
            else:
                key = resident[rng.randrange(len(resident))]
                forget(key)
                t0 = perf_counter()
                got = load(key)
                units.append(perf_counter() - t0)
                if got != shadow.pop(key):
                    failed += 1
        wall = perf_counter() - begin
        _activate(tracer, False)

    problems = []
    if failed:
        problems.append(f"{failed} loads returned wrong bytes")
    sim = _tier_sim(pipeline, refused, stores)
    xfm = pipeline.tiers_by_name()["xfm"].stats
    fallbacks = xfm.cpu_fallback_compressions + xfm.cpu_fallback_decompressions
    attempts = fallbacks + xfm.offloaded_compressions + xfm.offloaded_decompressions
    if attempts:
        sim["cpu_fallback_ratio"] = fallbacks / attempts
    # Short (--quick) runs store less than the top tiers hold; a full run
    # writes three times their raw capacity and has to demote.
    overrun = stores * PAGE_BYTES > 2 * (2 * TOP_TIER_BYTES)
    if overrun and pipeline.pipeline_stats.demotions <= 0:
        problems.append("churn never demoted: the top tiers were not overrun")
    return Outcome(
        ops=total,
        failed=failed,
        wall_s=wall,
        unit_us_per_op=[u * 1e6 for u in units],
        sim=sim,
        sim_outputs=_tier_outputs(pipeline),
        problems=problems,
        pipelines=[pipeline],
        sessions=[session] if session else [],
    )


def _setup_tier_fault_reuse(seed: int, scale: float, workdir: Path):
    library = _corpus_library(seed)[:REUSE_PAGES]
    pipeline = _build_pipeline()
    for key, data in enumerate(library):
        if not pipeline.store(key, data):
            raise RuntimeError(f"preload of key {key} was refused")
    rng = random.Random(seed)
    # Zipf(s) over popularity ranks; a seeded shuffle maps rank -> key so
    # hot keys are spread over corpora.
    weights = [1.0 / (rank + 1) ** REUSE_ZIPF_S for rank in range(REUSE_PAGES)]
    cdf = list(itertools.accumulate(weights))
    keys = list(range(REUSE_PAGES))
    rng.shuffle(keys)
    return library, pipeline, rng, cdf, keys, scale


def _run_tier_fault_reuse(state, tracer) -> Outcome:
    library, pipeline, rng, cdf, keys, scale = state
    iterations = max(1, round(REUSE_ITERATIONS * scale))
    store, load = pipeline.store, pipeline.load
    top = cdf[-1]
    before = pipeline.pipeline_stats.as_dict()
    failed = refused = 0
    units: List[float] = []

    session = _tier_session(tracer)
    with session or nullcontext():
        _activate(tracer, True)
        begin = perf_counter()
        for iteration in range(iterations):
            if tracer is not None:
                tracer.current_request = iteration
            key = keys[bisect.bisect_left(cdf, rng.random() * top)]
            expected = library[key]
            t0 = perf_counter()
            got = load(key)
            accepted = store(key, expected)
            # One fault-and-reuse pair is the timed unit: a median over
            # single calls would sit on the edge between the load mode
            # and the ten-times-cheaper store mode.
            units.append((perf_counter() - t0) / 2)
            if got != expected:
                failed += 1
            if not accepted:
                refused += 1
        wall = perf_counter() - begin
        _activate(tracer, False)

    problems = []
    if failed:
        problems.append(f"{failed} loads returned wrong bytes")
    if refused:
        problems.append(f"{refused} re-stores of resident pages were refused")
    demoted = pipeline.pipeline_stats.demotions - before["demotions"]
    if demoted:
        problems.append(f"{demoted} demotions: the working set should fit")
    sim = _tier_sim(pipeline, refused=0, stores=0)
    return Outcome(
        ops=2 * iterations,
        failed=failed + refused,
        wall_s=wall,
        unit_us_per_op=[u * 1e6 for u in units],
        sim=sim,
        sim_outputs=_tier_outputs(pipeline),
        problems=problems,
        pipelines=[pipeline],
        sessions=[session] if session else [],
    )


# -- emulator -------------------------------------------------------------------

#: (accesses_per_ref, refresh_policy, simulated seconds at scale 1): the
#: Fig. 12 budgets under all-bank refresh plus one per-bank point;
#: horizons give each policy about half the host time.
EMULATOR_POINTS = (
    (1, "all-bank", 0.55),
    (2, "all-bank", 0.55),
    (3, "all-bank", 0.55),
    (1, "per-bank", 0.15),
)


def _setup_xfm_emulator(seed: int, scale: float, workdir: Path):
    from repro.core.emulator import EmulatorConfig, XfmEmulator

    return [
        XfmEmulator(
            EmulatorConfig(
                accesses_per_ref=budget,
                refresh_policy=policy,
                sim_time_s=horizon_s * scale,
                seed=seed + index,
            )
        )
        for index, (budget, policy, horizon_s) in enumerate(EMULATOR_POINTS)
    ]


def _run_xfm_emulator(emulators, tracer) -> Outcome:
    reports, walls = [], []
    for index, emulator in enumerate(emulators):
        if tracer is not None:
            tracer.current_request = index
        _activate(tracer, True)
        begin = perf_counter()
        reports.append(emulator.run())
        walls.append(perf_counter() - begin)
        _activate(tracer, False)
    problems = []
    for (budget, policy, _), report in zip(EMULATOR_POINTS, reports):
        point = f"{policy} x{budget}"
        if report.total_ops <= 0 or report.completed_ops <= 0:
            problems.append(f"{point}: no offload completed")
        if report.fallback_ops != (
            report.fallback_spm_full + report.fallback_queue_full
        ):
            problems.append(f"{point}: fallback reasons do not add up")
        if report.completed_ops + report.fallback_ops > report.total_ops:
            problems.append(f"{point}: more ops finished than arrived")
    total = sum(r.total_ops for r in reports)
    sim = {
        "cpu_fallback_ratio": sum(r.fallback_ops for r in reports) / total,
        # The tightest point sets the reported latency (reports carry
        # percentiles, not samples, so points cannot be pooled).
        "sim_p50_ns": max(r.latency_percentiles_ms[50] for r in reports) * 1e6,
        "sim_p99_ns": max(r.latency_percentiles_ms[99] for r in reports) * 1e6,
    }
    return Outcome(
        ops=total,
        failed=0,
        wall_s=sum(walls),
        unit_us_per_op=[
            wall * 1e6 / report.total_ops
            for wall, report in zip(walls, reports)
        ],
        sim=sim,
        sim_outputs=[dataclasses.asdict(r) for r in reports],
        problems=problems,
        emulator_reports=reports,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fleet_spike", ("repro.fleet.harness",),
            _setup_fleet_spike, _run_fleet_spike,
        ),
        Workload(
            "fleet_steady_export", ("repro.fleet.harness",),
            _setup_fleet_steady_export, _run_fleet_steady_export,
        ),
        Workload(
            "tier_churn",
            ("repro.tiering.pipeline", "repro.workloads.corpus",
             "repro.telemetry.session"),
            _setup_tier_churn, _run_tier_churn,
        ),
        Workload(
            "tier_fault_reuse",
            ("repro.tiering.pipeline", "repro.workloads.corpus",
             "repro.telemetry.session"),
            _setup_tier_fault_reuse, _run_tier_fault_reuse,
        ),
        Workload(
            "xfm_emulator", ("repro.core.emulator",),
            _setup_xfm_emulator, _run_xfm_emulator,
        ),
    )
}
