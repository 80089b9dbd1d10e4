"""The scenario zoo: a shipped library of replayable swap traces.

Four canonical far-memory workload shapes, each recorded from a live
:class:`~repro.tiering.pipeline.TierPipeline` run through a
:class:`~repro.scenarios.recorder.TraceRecorder` and checked in as a
small compressed artifact under ``repro/scenarios/data/``:

* ``kv-cache``       — hot/cold keyed churn: skewed re-stores, demand
  loads, upward promotions of hot keys, TTL-style invalidations.
* ``analytics-scan`` — a resident working set swept sequentially, each
  page re-admitted after its scan touch (the paper's prefetchable
  pattern).
* ``web-session``    — the §7 synthetic web front-end (Zipf lookups +
  periodic scans) driven through the AIFM runtime over the pipeline.
* ``chaos-soak``     — a long mixed store/load/promote/invalidate soak
  sized to cascade into DFM; recorded clean, designed to be replayed
  under fault profiles (``--fault-profile``).

Every builder is deterministic in its seed (stdlib ``random.Random``
op-mix, seeded corpus pages, simulated clock), so
``build_scenario(name)`` regenerates the shipped artifact bit-for-bit —
which the freshness test and CI's record -> replay -> compare job both
exploit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.errors import ConfigError
from repro.scenarios.format import ScenarioTrace
from repro.scenarios.recorder import TraceRecorder
from repro.sfm.page import PAGE_SIZE
from repro.sim import CLOCK as _sim_clock
from repro.workloads.corpus import corpus_pages

#: Where the shipped artifacts live (installed with the package).
DATA_DIR = Path(__file__).parent / "data"

ARTIFACT_SUFFIX = ".trace.jsonl.gz"


@dataclass(frozen=True)
class ScenarioSpec:
    """One zoo entry: a name, a seeded builder, and its story."""

    name: str
    builder: Callable[[int], ScenarioTrace]
    description: str
    default_seed: int = 0


def _recorded_pipeline(
    name: str,
    seed: int,
    cpu_pages: int = 5,
    xfm_pages: int = 5,
    dfm_pages: int = 160,
) -> TraceRecorder:
    """The standard recording rig: a TraceRecorder around the canonical
    3-tier pipeline. The upper tiers are deliberately tiny so every
    scenario exercises demotion cascades into XFM and DFM; the DFM
    floor is sized to hold any builder's whole key universe (a cascade
    past a full floor would abort the recording)."""
    from repro.tiering.pipeline import TierPipeline
    from repro.tiering.policy import LruDemotion

    pipeline = TierPipeline.build(
        cpu_capacity_bytes=cpu_pages * PAGE_SIZE,
        xfm_capacity_bytes=xfm_pages * PAGE_SIZE,
        dfm_capacity_bytes=dfm_pages * PAGE_SIZE,
        demotion=LruDemotion(watermark_fraction=0.6),
    )
    return TraceRecorder(
        pipeline,
        name=name,
        seed=seed,
        meta={
            "generator": f"zoo.{name}",
            "tier_pages": [cpu_pages, xfm_pages, dfm_pages],
        },
    )


# -- builders ----------------------------------------------------------------


def _build_kv_cache(seed: int) -> ScenarioTrace:
    """Keyed churn with a hot set: the remote-KV-cache shape."""
    recorder = _recorded_pipeline("kv-cache", seed)
    rng = random.Random(seed)
    pages = corpus_pages("json-records", 48, seed=seed)
    #: key -> page payload currently stored in far memory.
    live: Dict[int, bytes] = {}
    next_key = 0

    def store_new() -> None:
        nonlocal next_key
        key = next_key % 64
        next_key += 1
        data = pages[key % len(pages)]
        if recorder.store(key, data):
            live[key] = data

    def pick(hot: bool) -> Optional[int]:
        if not live:
            return None
        keys = sorted(live)
        # Hot picks cluster on the lowest (oldest, most re-stored) keys.
        index = (
            min(int(rng.expovariate(0.25)), len(keys) - 1)
            if hot
            else rng.randrange(len(keys))
        )
        return keys[index]

    for _ in range(16):
        store_new()
    for _ in range(240):
        roll = rng.random()
        if roll < 0.35:
            store_new()
        elif roll < 0.65:
            key = pick(hot=True)
            if key is not None and recorder.load(key) is not None:
                live.pop(key, None)  # exclusive load: key left far memory
        elif roll < 0.85:
            key = pick(hot=True)
            if key is not None:
                recorder.promote_key(key)
        else:
            key = pick(hot=False)
            if key is not None and recorder.invalidate(key * PAGE_SIZE):
                live.pop(key, None)
    return recorder.trace


def _build_analytics_scan(seed: int) -> ScenarioTrace:
    """Sequential sweeps with re-admission: the prefetchable shape."""
    recorder = _recorded_pipeline("analytics-scan", seed)
    pages = corpus_pages("csv-table", 36, seed=seed)
    live: Dict[int, bytes] = {}
    for key, data in enumerate(pages):
        if recorder.store(key, data):
            live[key] = data
    for sweep in range(3):
        for key in sorted(live):
            # Announce the next stride to the promotion path, then touch.
            if key % 4 == 0:
                recorder.promote_key(key)
            if recorder.load(key) is not None:
                live.pop(key)
            # Scan results are re-admitted (cold again after the pass).
            data = pages[key]
            if recorder.store(key, data):
                live[key] = data
    return recorder.trace


def _build_web_session(seed: int) -> ScenarioTrace:
    """The §7 synthetic web front-end recorded through the AIFM seam."""
    from repro.sfm.controller import ColdScanController
    from repro.workloads.aifm import FarMemoryRuntime
    from repro.workloads.webfrontend import WebFrontend, WebFrontendConfig

    recorder = _recorded_pipeline("web-session", seed)
    runtime = FarMemoryRuntime(
        recorder,
        local_capacity_pages=20,
        # Aggressive cold-scan so the 10-second run actually swaps (the
        # default 30 s threshold would record an empty trace).
        controller=ColdScanController(
            cold_threshold_s=2.0, scan_period_s=1.0
        ),
    )
    frontend = WebFrontend(
        runtime,
        WebFrontendConfig(
            num_pages=44,
            lookups_per_s=18.0,
            write_fraction=0.25,
            scan_period_s=4.0,
            scan_burst_pages=12,
            prefetch_lookahead=4,
            seed=seed,
        ),
    )
    frontend.run(duration_s=10.0, step_s=1.0)
    return recorder.trace


def _build_chaos_soak(seed: int) -> ScenarioTrace:
    """A mixed soak that cascades into DFM; recorded clean so chaos
    replay (``replay --fault-profile``) re-runs the identical workload under
    injected faults."""
    recorder = _recorded_pipeline("chaos-soak", seed)
    rng = random.Random(seed)
    pages = corpus_pages("server-log", 40, seed=seed)
    live: Dict[int, bytes] = {}
    next_key = 0
    for _ in range(420):
        roll = rng.random()
        if roll < 0.5 or not live:
            key = next_key % 96
            next_key += 1
            data = pages[key % len(pages)]
            if recorder.store(key, data):
                live[key] = data
        elif roll < 0.85:
            key = rng.choice(sorted(live))
            if recorder.load(key) is not None:
                live.pop(key, None)
        else:
            key = rng.choice(sorted(live))
            recorder.promote_key(key)
    return recorder.trace


SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            "kv-cache",
            _build_kv_cache,
            "hot/cold keyed churn with promotions and invalidations",
        ),
        ScenarioSpec(
            "analytics-scan",
            _build_analytics_scan,
            "sequential sweeps with re-admission (prefetchable)",
        ),
        ScenarioSpec(
            "web-session",
            _build_web_session,
            "§7 synthetic web front-end via the AIFM runtime",
        ),
        ScenarioSpec(
            "chaos-soak",
            _build_chaos_soak,
            "DFM-cascading mixed soak for chaos replay",
        ),
    )
}


def build_scenario(name: str, seed: Optional[int] = None) -> ScenarioTrace:
    """Regenerate a zoo scenario from scratch (deterministic in seed)."""
    try:
        spec = SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; have {', '.join(sorted(SCENARIOS))}"
        ) from None
    # Builders stamp events from the shared simulated clock; scope it
    # to zero for the build (restored on exit) so the recorded trace is
    # identical no matter what ran in this process before.
    with _sim_clock.scoped(start_ns=0.0):
        return spec.builder(seed if seed is not None else spec.default_seed)


def scenario_path(name: str, base_dir: Optional[Path] = None) -> Path:
    """Path of the shipped artifact for ``name``."""
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; have {', '.join(sorted(SCENARIOS))}"
        )
    return (base_dir if base_dir is not None else DATA_DIR) / (
        name + ARTIFACT_SUFFIX
    )


def load_scenario(
    name: str, base_dir: Optional[Path] = None
) -> ScenarioTrace:
    """Load a shipped zoo artifact (typed errors on malformation)."""
    return ScenarioTrace.load(scenario_path(name, base_dir))


def regenerate_artifacts(
    out_dir: Optional[Union[str, Path]] = None,
) -> List[Path]:
    """(Re)build every shipped artifact; returns the written paths."""
    target = Path(out_dir) if out_dir is not None else DATA_DIR
    written = []
    for name in sorted(SCENARIOS):
        trace = build_scenario(name)
        written.append(trace.save(target / (name + ARTIFACT_SUFFIX)))
    return written
