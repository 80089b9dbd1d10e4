"""End-to-end span trees, latency quantiles, and failure flight dumps
from a real TierPipeline run under a TelemetrySession."""

import json

import pytest

from repro.resilience import faults
from repro.resilience.breaker import BreakerConfig
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sfm.page import PAGE_SIZE
from repro.sim.context import current, run_context
from repro.telemetry import trace
from repro.telemetry.session import TelemetrySession
from repro.telemetry.quantiles import collect_percentiles
from repro.tiering.pipeline import TierPipeline


def _page(key: int) -> bytes:
    unit = bytes([(key * 7 + j) % 13 for j in range(64)])
    return (unit * (PAGE_SIZE // len(unit)))[:PAGE_SIZE]


def _run_pipeline(session, stores=24, loads=12):
    """Small upper tiers force demotion cascades and cross-tier loads."""
    pipeline = TierPipeline.build(
        cpu_capacity_bytes=4 * PAGE_SIZE,
        xfm_capacity_bytes=4 * PAGE_SIZE,
        dfm_capacity_bytes=64 * PAGE_SIZE,
        registry=session.registry,
    )
    for key in range(stores):
        assert pipeline.store(key, _page(key))
    assert pipeline.demote_coldest(4, from_tier=0) > 0
    for key in range(loads):
        assert pipeline.load(key) == _page(key)
    return pipeline


class TestSpanTree:
    def test_device_events_parent_to_pipeline_spans(self):
        with TelemetrySession() as session:
            _run_pipeline(session)
            events = session.ring.events()
        spanned = [e for e in events if e.args and "span" in e.args]
        assert spanned, "no span-tagged events emitted"
        span_ids = {e.args["span"] for e in spanned}
        by_name = {}
        for e in spanned:
            by_name.setdefault(e.name, []).append(e)
        # The pipeline ops open root spans...
        assert "pipeline_store" in by_name
        assert "pipeline_load" in by_name
        # ...and the backends' device events hang off them.
        for leaf in ("cpu_compress", "cpu_decompress"):
            assert leaf in by_name, f"missing {leaf} leaves"
            for event in by_name[leaf]:
                assert event.args["parent"] in span_ids
        # Every parent reference resolves to an allocated span id.
        for event in spanned:
            if "parent" in event.args:
                assert event.args["parent"] in span_ids

    def test_span_ids_unique(self):
        with TelemetrySession() as session:
            _run_pipeline(session)
            events = session.ring.events()
        ids = [e.args["span"] for e in events if e.args and "span" in e.args]
        assert len(ids) == len(set(ids))

    def test_demotion_rounds_form_spans_with_victim_counts(self):
        with TelemetrySession() as session:
            _run_pipeline(session)
            events = session.ring.events()
        rounds = [e for e in events if e.name == "demote_round"]
        assert rounds, "cascades should have produced demote_round spans"
        for event in rounds:
            assert event.args["victims"] >= 1
            assert event.args["placed"] + event.args["poisoned"] >= 0

    def test_run_without_session_emits_nothing(self):
        from repro.telemetry.registry import MetricsRegistry

        assert not trace.tracing_enabled()

        class _Sess:
            registry = MetricsRegistry()

        _run_pipeline(_Sess())
        assert current().ring is None


class TestLatencyQuantiles:
    def test_per_op_per_tier_histograms_populate(self):
        with TelemetrySession() as session:
            _run_pipeline(session)
        rows = collect_percentiles(session.registry)
        pairs = {(r["op"], r["tier"]) for r in rows}
        assert ("store", "pipeline") in pairs
        assert ("store", "cpu-zswap") in pairs
        assert ("load", "pipeline") in pairs
        assert ("demote", "pipeline") in pairs
        for row in rows:
            assert row["count"] > 0
            assert row["p50"] <= row["p90"] <= row["p99"] <= row["p999"]
            assert row["p50"] > 0

    def test_untraced_run_records_no_latency(self):
        from repro.telemetry.registry import MetricsRegistry

        class _Sess:
            registry = MetricsRegistry()

        _run_pipeline(_Sess())
        assert collect_percentiles(_Sess.registry) == []


class TestBreakerFlightDump:
    def _trip_dfm_breaker(self, session):
        pipeline = TierPipeline.build(
            cpu_capacity_bytes=PAGE_SIZE,
            xfm_capacity_bytes=PAGE_SIZE,
            dfm_capacity_bytes=64 * PAGE_SIZE,
            registry=session.registry,
            breaker_config=BreakerConfig(
                failure_threshold=2, cooldown_ops=3, probes_to_close=1
            ),
        )
        plan = FaultPlan(
            seed=1,
            specs=(FaultSpec(faults.DFM_LINK_ERROR, probability=1.0),),
        )
        with run_context(injector=FaultInjector(plan)):
            for key in range(12):
                pipeline.store(key, _page(key))
        assert pipeline.breaker_states()["dfm"] == "open"
        return pipeline

    def test_breaker_open_auto_dumps_flight_record(self, tmp_path):
        with TelemetrySession(out_dir=tmp_path) as session:
            self._trip_dfm_breaker(session)
        dump = tmp_path / "flight_breaker_open.json"
        assert dump.exists()
        doc = json.loads(dump.read_text())
        assert doc["reason"] == "breaker_open"
        assert doc["detail"]["tier"] == "dfm"
        assert doc["events"], "flight record should carry recent events"
        # The metric deltas point at the failing tier.
        assert any(
            "tier_breaker.transitions" in key
            for key in doc["metric_deltas"]
        )

    def test_no_dump_on_clean_run(self, tmp_path):
        with TelemetrySession(out_dir=tmp_path) as session:
            _run_pipeline(session)
        assert list(tmp_path.glob("flight_*.json")) == []
        assert session.flight.dump_names == []
