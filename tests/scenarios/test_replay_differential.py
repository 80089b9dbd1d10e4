"""Differential replay: every shipped scenario against every target.

The acceptance matrix of the scenario zoo: each checked-in trace
artifact replays against all four flat backends plus the 3-tier
pipeline, and on every target

* every load returns byte-identical page contents (digest-verified by
  the replayer: ``digest_mismatches == 0`` and ``missing_pages == 0``),
* two replays of the same trace against the same config produce
  identical stats (full report dict compared);

and under both chaos fault profiles every target either heals (the
``transient`` profile) or reports each loss it could not heal (``full``).
"""

import json

import pytest

from repro.resilience.chaos import fault_plan_for
from repro.resilience.faults import FaultInjector
from repro.scenarios.format import OP_STORE
from repro.scenarios.replayer import TraceReplayer, replay_trace
from repro.scenarios.zoo import SCENARIOS, load_scenario
from repro.sim.context import run_context
from repro.tiering.factory import TIER_KINDS, make_tier

SCENARIO_NAMES = sorted(SCENARIOS)


def _faulted_replay(trace, backend, profile, fault_seed):
    """Replay under a seeded chaos fault profile, as ``replay
    --fault-profile`` does."""
    target = make_tier(backend)
    plan = fault_plan_for(profile, fault_seed)
    with run_context(injector=FaultInjector(plan)):
        return replay_trace(trace, target, backend_name=backend)


@pytest.fixture(scope="module")
def traces():
    """Load each shipped artifact once for the whole matrix."""
    return {name: load_scenario(name) for name in SCENARIO_NAMES}


@pytest.mark.parametrize("backend", TIER_KINDS)
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
class TestDifferentialMatrix:
    def test_replay_is_clean_and_reconciles(
        self, traces, scenario, backend
    ):
        trace = traces[scenario]
        target = make_tier(backend)
        report = replay_trace(trace, target, backend_name=backend)

        # Byte-identical page contents on every load, no page ever
        # falls off the world.
        assert report.digest_mismatches == 0, (scenario, backend)
        assert report.missing_pages == 0, (scenario, backend)
        assert report.clean
        assert report.events == len(trace)
        assert report.stores == sum(event.op == OP_STORE for event in trace)
        assert report.bytes_moved > 0


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
@pytest.mark.parametrize("backend", ["dfm", "pipeline"])
def test_replay_stats_are_deterministic(traces, scenario, backend):
    """Two replays of one trace against one config: identical reports
    (counters, bytes moved, AMAT, per-tier breakdowns — everything)."""
    trace = traces[scenario]
    first = replay_trace(
        trace, make_tier(backend), backend_name=backend
    ).as_dict()
    second = replay_trace(
        trace, make_tier(backend), backend_name=backend
    ).as_dict()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


@pytest.mark.parametrize("fault_seed", (3, 7))
@pytest.mark.parametrize("profile", ("transient", "full"))
@pytest.mark.parametrize("backend", TIER_KINDS)
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_faulted_replay_heals_or_reports(
    traces, scenario, backend, profile, fault_seed
):
    """The fault matrix: transient faults heal, persistent media
    corruption is reported, and nothing comes back wrong. The replayer
    turns the typed tier errors (unavailable tier, poisoned page, lost
    bookkeeping) into report counters, so no exception may escape."""
    try:
        report = _faulted_replay(
            traces[scenario], backend, profile, fault_seed
        )
    except Exception as exc:
        pytest.fail(f"{type(exc).__name__} escaped the replay: {exc}")
    assert report.digest_mismatches == 0
    if profile == "transient":
        assert report.clean
    else:
        assert report.missing_pages <= report.data_loss_events


def test_chaos_replay_transient_faults_heal(traces):
    """Replaying under the transient fault profile must never corrupt
    or lose data — faults heal via retry/fallback (the chaos gate
    applied to recorded workloads)."""
    report = _faulted_replay(traces["chaos-soak"], "pipeline", "transient", 5)
    assert report.digest_mismatches == 0
    assert report.data_loss_events == 0
    assert report.missing_pages == 0


def test_chaos_replay_is_deterministic_in_fault_seed(traces):
    first, second = (
        _faulted_replay(traces["chaos-soak"], "dfm", "transient", 11).as_dict()
        for _ in range(2)
    )
    assert first == second


def test_replayer_exports_into_telemetry_session(traces, tmp_path):
    """A session-attached replay lands gauges + an annotation block in
    metrics.json."""
    from repro.telemetry.session import TelemetrySession

    session = TelemetrySession(out_dir=tmp_path)
    with session:
        target = make_tier("dfm", registry=session.registry)
        TraceReplayer(
            traces["kv-cache"],
            target,
            backend_name="dfm",
            session=session,
        ).run()
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert doc["annotations"]["replay"]["scenario"] == "kv-cache"
    assert doc["annotations"]["replay"]["clean"] is True
    assert "replay_target" in doc["stats"]


@pytest.mark.slow
def test_soak_replay_across_all_backends_repeatedly(traces):
    """Long soak: the chaos-soak trace replayed three times per target,
    clean every time (exercises allocator/compaction paths that only
    show up under sustained reuse)."""
    for backend in TIER_KINDS:
        for _ in range(3):
            report = replay_trace(
                traces["chaos-soak"],
                make_tier(backend),
                backend_name=backend,
            )
            assert report.clean, backend
