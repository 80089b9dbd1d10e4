"""Clock scoping across layers: borrowed timelines always hand back.

The shared :data:`repro.sim.CLOCK` is one mutable timeline; every
component that *owns* time for a while (telemetry sessions, trace
replays, scenario builds) must save/restore it so nesting composes.
These tests pin that contract at the integration level.
"""

import pytest

from repro.scenarios.replayer import TraceReplayer
from repro.scenarios.zoo import build_scenario, load_scenario
from repro.sfm.page import PAGE_SIZE
from repro.sim import CLOCK
from repro.telemetry.session import TelemetrySession
from repro.tiering.factory import make_tier


@pytest.fixture(autouse=True)
def _pinned_clock():
    """Park the shared clock at a sentinel and verify every test leaves
    it exactly where it found it."""
    with CLOCK.scoped(start_ns=1_234_567.0):
        yield
        assert CLOCK.now_ns() == 1_234_567.0, "test leaked clock state"


class TestSessionScoping:
    def test_session_zeroes_then_restores_the_clock(self):
        with TelemetrySession():
            assert CLOCK.now_ns() == 0.0
            CLOCK.advance_ns(999.0)
        assert CLOCK.now_ns() == 1_234_567.0

    def test_nested_sessions_restore_like_a_stack(self):
        with TelemetrySession():
            CLOCK.advance_ns(50.0)
            with TelemetrySession():
                assert CLOCK.now_ns() == 0.0
                CLOCK.advance_ns(7.0)
            assert CLOCK.now_ns() == 50.0
        assert CLOCK.now_ns() == 1_234_567.0

    def test_session_restores_on_workload_error(self):
        with pytest.raises(RuntimeError):
            with TelemetrySession():
                CLOCK.advance_ns(3.0)
                raise RuntimeError("workload died")
        assert CLOCK.now_ns() == 1_234_567.0


class TestReplayerScoping:
    def test_replay_drives_then_restores_the_clock(self):
        trace_art = load_scenario("web-session")
        target = make_tier("pipeline", capacity_bytes=40 * PAGE_SIZE)
        report = TraceReplayer(trace_art, target, backend_name="pipeline").run()
        assert report.events > 0
        assert CLOCK.now_ns() == 1_234_567.0

    def test_replays_nest_inside_sessions(self):
        trace_art = load_scenario("web-session")
        with TelemetrySession() as session:
            CLOCK.advance_ns(11.0)
            target = make_tier(
                "pipeline",
                capacity_bytes=40 * PAGE_SIZE,
                registry=session.registry,
            )
            TraceReplayer(
                trace_art, target, backend_name="pipeline", session=session
            ).run()
            assert CLOCK.now_ns() == 11.0
        assert CLOCK.now_ns() == 1_234_567.0


class TestZooScoping:
    def test_build_scenario_restores_the_clock(self):
        trace_art = build_scenario("web-session")
        assert len(trace_art.events) > 0
        assert CLOCK.now_ns() == 1_234_567.0
