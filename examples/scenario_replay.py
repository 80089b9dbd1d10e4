#!/usr/bin/env python3
"""Record a swap trace once, replay it against every far-memory config.

The scenario zoo's core promise: a workload recorded from one live tier
run becomes a portable artifact that replays — byte-identically, with
deterministic stats — against any backend or pipeline configuration.
This demo records a small keyed-churn workload through a
``TraceRecorder``-wrapped 3-tier pipeline, saves/loads the versioned
artifact, replays it against three different targets, and proves both
determinism (two replays, identical stats) and portability (every
target serves back the exact recorded page bytes).

Run:  python examples/scenario_replay.py
"""

import json
import random
import tempfile
from pathlib import Path

from repro.scenarios.format import ScenarioTrace, trace_fingerprint
from repro.scenarios.recorder import TraceRecorder
from repro.scenarios.replayer import replay_trace
from repro.scenarios.zoo import load_scenario
from repro.sfm.page import PAGE_SIZE
from repro.tiering.factory import make_tier
from repro.tiering.pipeline import TierPipeline
from repro.tiering.policy import LruDemotion
from repro.workloads.corpus import corpus_pages


def record_workload(seed: int = 7) -> ScenarioTrace:
    """A keyed-churn workload recorded from a live pipeline run."""
    pipeline = TierPipeline.build(
        cpu_capacity_bytes=4 * PAGE_SIZE,
        xfm_capacity_bytes=4 * PAGE_SIZE,
        dfm_capacity_bytes=64 * PAGE_SIZE,
        demotion=LruDemotion(watermark_fraction=0.6),
    )
    recorder = TraceRecorder(pipeline, name="demo-churn", seed=seed)
    rng = random.Random(seed)
    pages = corpus_pages("json-records", 24, seed=seed)
    live = {}
    for step in range(120):
        roll = rng.random()
        if roll < 0.5 or not live:
            key = step % 32
            if recorder.store(key, pages[key % len(pages)]):
                live[key] = True
        elif roll < 0.85:
            key = rng.choice(sorted(live))
            if recorder.load(key) is not None:
                live.pop(key)  # loads are exclusive
        else:
            recorder.promote_key(rng.choice(sorted(live)))
    return recorder.trace


def main() -> None:
    trace = record_workload()
    print(f"recorded {len(trace)} events over {len(trace.pages)} unique "
          f"pages from a live 3-tier pipeline run")

    # The artifact round-trips through the versioned on-disk format.
    with tempfile.TemporaryDirectory() as tmp:
        path = trace.save(Path(tmp) / "demo.trace.jsonl.gz")
        size = path.stat().st_size
        reloaded = ScenarioTrace.load(path)
    assert trace_fingerprint(reloaded) == trace_fingerprint(trace)
    print(f"artifact round-trip: {size} bytes on disk, fingerprint "
          f"{trace_fingerprint(reloaded)}")

    # Backend-portable: the same trace replays cleanly against flat
    # backends and pipelines alike — recorded page bytes come back
    # digest-identical from every target.
    print("\nbackend-portable replay (same trace, three targets):")
    for kind in ("cpu", "dfm", "pipeline"):
        report = replay_trace(
            reloaded, make_tier(kind), backend_name=kind
        )
        assert report.clean, f"{kind} replay corrupted pages"
        print(f"  {kind:9s}: clean={report.clean} "
              f"stores={report.stores} loads={report.loads} "
              f"bytes_moved={report.bytes_moved} "
              f"amat={report.amat_s * 1e6:.2f}us")

    # Deterministic across replays: identical stats, twice.
    first = replay_trace(reloaded, make_tier("pipeline"),
                         backend_name="pipeline").as_dict()
    second = replay_trace(reloaded, make_tier("pipeline"),
                          backend_name="pipeline").as_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )
    print("\ndeterministic across replays: two pipeline replays produced "
          "identical stats")

    # The shipped zoo works the same way.
    zoo_trace = load_scenario("kv-cache")
    report = replay_trace(zoo_trace, make_tier("dfm"), backend_name="dfm")
    print(f"\nshipped zoo scenario 'kv-cache': {len(zoo_trace)} events, "
          f"replayed clean={report.clean} on dfm")


if __name__ == "__main__":
    main()
