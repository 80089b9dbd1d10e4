"""Flight recorder: bounded capture, triggers, dumps, installation."""

import json

import pytest

from repro.errors import ConfigError
from repro.sim.context import current, run_context
from repro.telemetry import flightrec, trace
from repro.telemetry.flightrec import (
    REASON_BREAKER_OPEN,
    REASON_POISON,
    FlightRecorder,
)
from repro.telemetry.registry import MetricsRegistry


class TestBoundedCapture:
    def test_capacity_bounds_and_counts_drops(self):
        rec = FlightRecorder(capacity=3)
        with run_context(ring=trace.TraceRing(), flight=rec):
            for i in range(5):
                trace.instant(f"e{i}", trace.TRACK_CPU)
        assert len(rec.sink) == 3
        assert rec.dropped == 2
        doc = rec.document("poison")
        assert [e["name"] for e in doc["events"]] == ["e2", "e3", "e4"]
        assert doc["events_dropped"] == 2

    def test_records_even_without_a_ring(self):
        """The flight recorder sees (unguarded) emissions even while
        tracing is off and no ring exists."""
        rec = FlightRecorder(capacity=8)
        with run_context(flight=rec):
            assert not trace.tracing_enabled()
            assert current().ring is None
            trace.instant("x", trace.TRACK_CPU)
        assert [e.name for e in rec.sink] == ["x"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            FlightRecorder(capacity=0)


class TestMetricDeltas:
    def test_deltas_are_relative_to_install_baseline(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(100)
        rec = FlightRecorder(registry=reg)
        reg.counter("ops").inc(7)
        reg.counter("untouched").inc(0)
        assert rec.metric_deltas() == {"ops": 7}

    def test_no_registry_means_no_deltas(self):
        assert FlightRecorder().metric_deltas() == {}


class TestTrigger:
    def test_dump_written_with_out_dir(self, tmp_path):
        rec = FlightRecorder(out_dir=str(tmp_path))
        with run_context(ring=trace.TraceRing(), flight=rec):
            trace.instant("last_gasp", trace.TRACK_CPU)
            name = flightrec.trigger(REASON_POISON, {"vaddr": 4096})
        assert name == "flight_poison.json"
        doc = json.loads((tmp_path / name).read_text())
        assert doc["reason"] == "poison"
        assert doc["detail"] == {"vaddr": 4096}
        assert [e["name"] for e in doc["events"]] == ["last_gasp"]
        assert rec.dumps == [str(tmp_path / name)]

    def test_repeat_triggers_get_numbered_files(self, tmp_path):
        rec = FlightRecorder(out_dir=str(tmp_path))
        assert rec.trigger(REASON_BREAKER_OPEN) == "flight_breaker_open.json"
        assert (
            rec.trigger(REASON_BREAKER_OPEN) == "flight_breaker_open_2.json"
        )
        assert rec.trigger(REASON_POISON) == "flight_poison.json"
        assert len(list(tmp_path.glob("flight_*.json"))) == 3

    def test_without_out_dir_only_the_name_is_recorded(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        rec = FlightRecorder()
        rec.trigger(REASON_POISON)
        assert rec.dump_names == ["flight_poison.json"]
        assert rec.dumps == []
        assert list(tmp_path.glob("flight_*.json")) == []
        # Once an out_dir is set the next dump is built and written, and
        # its number counts the unwritten one.
        rec.out_dir = str(tmp_path / "out")
        rec.trigger(REASON_POISON, {"vaddr": 8192})
        written = tmp_path / "out" / "flight_poison_2.json"
        assert rec.dumps == [str(written)]
        doc = json.loads(written.read_text())
        assert doc["reason"] == "poison"
        assert doc["detail"] == {"vaddr": 8192}


class TestInstallation:
    def test_module_trigger_is_noop_when_uninstalled(self):
        assert current().flight is None
        assert flightrec.trigger(REASON_POISON) is None

    def test_nested_contexts_restore_the_outer_recorder(self):
        first, second = FlightRecorder(), FlightRecorder()
        with run_context(flight=first):
            with run_context(flight=second):
                assert current().flight is second
                with run_context(flight=None):
                    assert flightrec.trigger(REASON_POISON) is None
                assert flightrec.trigger(REASON_POISON) is not None
            assert current().flight is first
        assert current().flight is None
        assert first.dump_names == [] and len(second.dump_names) == 1

    def test_module_trigger_routes_to_installed_recorder(self):
        rec = FlightRecorder()
        with run_context(flight=rec):
            assert flightrec.trigger(REASON_POISON) == "flight_poison.json"
        assert rec.dump_names == ["flight_poison.json"]
