"""Trace ring, emission guards, and Chrome trace-event export."""

import pytest

from repro.errors import ConfigError
from repro.sim import CLOCK
from repro.telemetry import trace


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    trace.set_tracing(False)
    CLOCK.set_ns(0.0)
    yield
    trace.set_tracing(False)


class TestRing:
    def test_overflow_drops_oldest(self):
        ring = trace.TraceRing(capacity=3)
        for i in range(5):
            ring.append(
                trace.TraceEvent(f"e{i}", trace.PH_INSTANT, float(i), "cpu")
            )
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e.name for e in ring.events()] == ["e2", "e3", "e4"]

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            trace.TraceRing(capacity=0)

    def test_clear_resets_dropped(self):
        ring = trace.TraceRing(capacity=1)
        ring.append(trace.TraceEvent("a", "i", 0.0, "cpu"))
        ring.append(trace.TraceEvent("b", "i", 0.0, "cpu"))
        ring.clear()
        assert len(ring) == 0 and ring.dropped == 0


class TestEmission:
    def test_disabled_is_noop(self):
        assert not trace.tracing_enabled()
        trace.instant("x", trace.TRACK_CPU)  # must not raise, must not store
        assert trace.current_ring() is None

    def test_scoped_tracing_collects_and_restores(self):
        with trace.tracing() as ring:
            assert trace.tracing_enabled()
            trace.instant("a", trace.TRACK_CPU, args={"k": 1})
            trace.complete("b", trace.TRACK_NMA, 100.0, 50.0)
        assert not trace.tracing_enabled()
        names = [e.name for e in ring.events()]
        assert names == ["a", "b"]

    def test_timestamps_default_to_clock(self):
        with trace.tracing() as ring:
            CLOCK.set_ns(123.0)
            trace.instant("a", trace.TRACK_CPU)
            CLOCK.advance_ns(7.0)
            trace.instant("b", trace.TRACK_CPU)
        ts = [e.ts_ns for e in ring.events()]
        assert ts == [123.0, 130.0]

    def test_fallback_event_shape(self):
        with trace.tracing() as ring:
            trace.fallback("spm_full", "compress", vaddr=0x1000)
        (event,) = ring.events()
        assert event.name == "cpu_fallback"
        assert event.track == trace.TRACK_CPU
        assert event.args == {
            "reason": "spm_full",
            "op": "compress",
            "vaddr": 0x1000,
        }


class TestChromeExport:
    def _trace_doc(self):
        with trace.tracing() as ring:
            trace.complete(
                "ref_window", trace.refresh_track(0), 0.0, 350.0,
                args={"ref_index": 0},
            )
            trace.instant("doorbell", trace.TRACK_DRIVER)
            trace.complete("nma_compress", trace.TRACK_NMA, 400.0, 276.0)
            trace.fallback("queue_full", "compress")
        return trace.to_chrome_trace(ring)

    def test_every_event_has_required_fields(self):
        doc = self._trace_doc()
        assert doc["otherData"]["dropped_events"] == 0
        for event in doc["traceEvents"]:
            assert event["ph"] in ("X", "i", "M")
            assert "ts" in event and "pid" in event and "tid" in event
            assert "name" in event
            if event["ph"] == "X":
                assert "dur" in event
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_one_track_per_actor(self):
        doc = self._trace_doc()
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"cpu", "nma", "driver", "refresh/ch0"}

    def test_timestamps_are_microseconds(self):
        doc = self._trace_doc()
        span = next(
            e for e in doc["traceEvents"] if e["name"] == "nma_compress"
        )
        assert span["ts"] == pytest.approx(0.4)  # 400 ns
        assert span["dur"] == pytest.approx(0.276)

    def test_tracks_get_distinct_tids(self):
        doc = self._trace_doc()
        tids = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert len(set(tids.values())) == len(tids)
