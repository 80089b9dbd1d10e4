"""Golden replay snapshots for the shipped scenario artifacts.

Replaying a checked-in trace against the pinned golden backend config
must render byte-identically to ``benchmarks/results/replay_*.txt``.
A diff means replay semantics (hit accounting, AMAT model, per-tier
routing) moved — regenerate the goldens only after confirming the shift
is intentional.  A second guard pins the artifacts themselves: the zoo
builders must still reproduce the committed traces bit-for-bit.
"""

from pathlib import Path

import pytest

from repro.analysis.goldens import (
    REPLAY_GOLDEN_BACKEND,
    REPLAY_GOLDEN_FILES,
    REPLAY_GOLDEN_KWARGS,
    replay_summary,
)
from repro.scenarios.format import ScenarioTrace, trace_fingerprint
from repro.scenarios.replayer import replay_trace
from repro.scenarios.zoo import (
    ARTIFACT_SUFFIX,
    SCENARIOS,
    build_scenario,
    load_scenario,
    regenerate_artifacts,
)
from repro.tiering.factory import make_tier

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _golden(name: str) -> str:
    path = RESULTS / name
    if not path.exists():
        pytest.skip(f"golden file {path} not committed")
    return path.read_text()


@pytest.mark.parametrize("scenario", sorted(REPLAY_GOLDEN_FILES))
def test_replay_matches_golden(scenario):
    trace = load_scenario(scenario)
    target = make_tier(REPLAY_GOLDEN_BACKEND, **REPLAY_GOLDEN_KWARGS)
    report = replay_trace(
        trace, target, backend_name=REPLAY_GOLDEN_BACKEND
    )
    rendered = replay_summary(report) + "\n"
    golden = _golden(REPLAY_GOLDEN_FILES[scenario])
    assert rendered == golden, (
        f"replay of {scenario} drifted from "
        f"benchmarks/results/{REPLAY_GOLDEN_FILES[scenario]} — regenerate "
        "via scripts in EXPERIMENTS.md only if the change is intentional"
    )


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_shipped_artifact_matches_builder(scenario):
    """The committed .trace.jsonl.gz must be exactly what the zoo
    builder produces today — stale artifacts fail here."""
    assert trace_fingerprint(load_scenario(scenario)) == (
        trace_fingerprint(build_scenario(scenario))
    ), (
        f"shipped artifact for {scenario} is stale — regenerate with "
        "repro.scenarios.zoo.regenerate_artifacts()"
    )


def test_regenerate_artifacts_writes_the_shipped_traces(tmp_path):
    written = regenerate_artifacts(tmp_path)
    assert [path.parent for path in written] == [tmp_path] * len(SCENARIOS)
    for path in written:
        name = path.name[: -len(ARTIFACT_SUFFIX)]
        assert trace_fingerprint(ScenarioTrace.load(path)) == (
            trace_fingerprint(load_scenario(name))
        )
