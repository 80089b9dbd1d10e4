"""Replay reports grow latency percentile tables — only under tracing.

The committed replay goldens are rendered from session-less replays, so
the percentile block must be entirely absent there; a traced replay of
the same scenario must populate it.
"""

from repro.scenarios.replayer import TraceReplayer, format_report
from repro.scenarios.zoo import load_scenario
from repro.sfm.page import PAGE_SIZE
from repro.telemetry.session import TelemetrySession
from repro.telemetry.slo import LatencyObjective, SloEngine
from repro.tiering.factory import make_tier


def _replay(session=None, slo_engine=None):
    trace_art = load_scenario("web-session")
    registry = session.registry if session is not None else None
    target = make_tier(
        "pipeline", capacity_bytes=40 * PAGE_SIZE, registry=registry
    )
    return TraceReplayer(
        trace_art,
        target,
        backend_name="pipeline",
        session=session,
        slo_engine=slo_engine,
    ).run()


class TestTracedReplay:
    def test_percentile_rows_cover_ops_and_tiers(self):
        with TelemetrySession() as session:
            report = _replay(session)
        rows = report.latency_percentiles
        assert rows
        pairs = {(r["op"], r["tier"]) for r in rows}
        assert ("store", "pipeline") in pairs
        assert ("load", "pipeline") in pairs
        assert rows == sorted(
            rows, key=lambda r: (r["op"], r["tier"])
        )

    def test_report_dict_and_rendering_include_percentiles(self):
        with TelemetrySession() as session:
            report = _replay(session)
        doc = report.as_dict()
        assert doc["latency_percentiles"] == report.latency_percentiles
        rendered = format_report(doc)
        assert "latency percentiles:" in rendered
        assert "p999_us" in rendered

    def test_slo_engine_ticks_on_trace_timestamps(self):
        with TelemetrySession() as session:
            registry = session.registry
            engine = SloEngine(
                registry,
                [
                    LatencyObjective(
                        "store",
                        op="store",
                        tier="pipeline",
                        threshold_ns=1e9,
                        target=0.5,
                    )
                ],
                window_ns=15000.0,
            )
            _replay(session, slo_engine=engine)
        # web-session spans 90000 ns of simulated time: six whole
        # windows, no trailing partial (everything is within budget by
        # the time the last boundary closes).
        assert len(engine.windows) >= 6
        summary = engine.summary()["store"]
        assert summary["total"] > 0
        assert summary["met"] is True


class TestUntracedReplay:
    def test_no_percentiles_and_unchanged_rendering(self):
        report = _replay()
        assert report.latency_percentiles == []
        assert "latency_percentiles" not in report.as_dict()
        assert "latency percentiles" not in format_report(report.as_dict())
