"""Trace ring, emission guards, and Chrome trace-event export."""

import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.sim import CLOCK
from repro.sim.context import current, run_context
from repro.telemetry import trace
from repro.telemetry.flightrec import FlightRecorder


@pytest.fixture(autouse=True)
def _clock_at_zero():
    """Every test starts at simulated t=0 and leaves the clock as found."""
    with run_context(clock_ns=0.0):
        yield


def _append(ring, *events):
    """Emit ``events`` into ``ring`` through :func:`trace.emit`."""
    with run_context(ring=ring, flight=None):
        for e in events:
            trace.emit(e.name, e.ph, e.track, e.ts_ns, e.dur_ns, e.args)


class TestRing:
    def test_overflow_drops_oldest(self):
        ring = trace.TraceRing(capacity=3)
        for i in range(5):
            _append(
                ring,
                trace.TraceEvent(f"e{i}", trace.PH_INSTANT, float(i), "cpu"),
            )
        assert len(ring) == 3
        assert ring.dropped == 2
        assert [e.name for e in ring.events()] == ["e2", "e3", "e4"]

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            trace.TraceRing(capacity=0)


def _names(ring):
    return [e.name for e in ring.events()]


class TestWindows:
    def test_kept_window_enters_the_ring_at_commit(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            trace.instant("before", trace.TRACK_CPU)
            ring.mark()
            trace.instant("inside", trace.TRACK_CPU)
            assert _names(ring) == ["before"]
            ring.commit(True)
            trace.instant("after", trace.TRACK_CPU)
        assert _names(ring) == ["before", "inside", "after"]
        assert ring.sampled_out == 0 and ring.dropped == 0

    def test_dropped_window_is_counted_not_kept(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            ring.mark()
            trace.instant("a", trace.TRACK_CPU)
            trace.instant("b", trace.TRACK_CPU)
            ring.commit(False)
            trace.instant("c", trace.TRACK_CPU)
        assert _names(ring) == ["c"]
        assert ring.sampled_out == 2 and ring.dropped == 0

    def test_dropped_window_never_evicts_a_kept_event(self):
        ring = trace.TraceRing(capacity=2)
        with run_context(ring=ring):
            trace.instant("a", trace.TRACK_CPU)
            trace.instant("b", trace.TRACK_CPU)
            ring.mark()
            for i in range(5):
                trace.instant(f"w{i}", trace.TRACK_CPU)
            assert ring.dropped == 0
            ring.commit(False)
        assert _names(ring) == ["a", "b"]
        assert ring.dropped == 0 and ring.sampled_out == 5

    def test_kept_window_overflows_like_any_event(self):
        ring = trace.TraceRing(capacity=2)
        with run_context(ring=ring):
            trace.instant("a", trace.TRACK_CPU)
            ring.mark()
            trace.instant("w0", trace.TRACK_CPU)
            trace.instant("w1", trace.TRACK_CPU)
            ring.commit(True)
        assert _names(ring) == ["w0", "w1"]
        assert ring.dropped == 1

    def test_flight_recorder_sees_a_dropped_window(self):
        ring, flight = trace.TraceRing(), FlightRecorder()
        with run_context(ring=ring, flight=flight):
            ring.mark()
            trace.instant("w", trace.TRACK_CPU)
            ring.commit(False)
        assert len(ring) == 0 and [e.name for e in flight.sink] == ["w"]

    def test_windows_do_not_nest(self):
        ring = trace.TraceRing()
        ring.mark()
        with pytest.raises(ConfigError):
            ring.mark()


class TestEmission:
    def test_disabled_is_noop(self):
        assert not trace.tracing_enabled()
        trace.instant("x", trace.TRACK_CPU)  # must not raise, must not store
        assert current().ring is None

    def test_scoped_tracing_collects_and_restores(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            assert trace.tracing_enabled()
            trace.instant("a", trace.TRACK_CPU, args={"k": 1})
            trace.complete("b", trace.TRACK_NMA, 100.0, 50.0)
        assert not trace.tracing_enabled()
        names = [e.name for e in ring.events()]
        assert names == ["a", "b"]

    def test_timestamps_default_to_clock(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            CLOCK.set_ns(123.0)
            trace.instant("a", trace.TRACK_CPU)
            CLOCK.advance_ns(7.0)
            trace.instant("b", trace.TRACK_CPU)
        ts = [e.ts_ns for e in ring.events()]
        assert ts == [123.0, 130.0]

    def test_fallback_event_shape(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            trace.fallback("spm_full", "compress", vaddr=0x1000)
        (event,) = ring.events()
        assert event.name == "cpu_fallback"
        assert event.track == trace.TRACK_CPU
        assert event.args == {
            "reason": "spm_full",
            "op": "compress",
            "vaddr": 0x1000,
        }


def _export(ring):
    """The ring through the writer, parsed back."""
    out = io.StringIO()
    trace.write_chrome_trace(ring, out)
    return json.loads(out.getvalue())


def _spec_document(ring):
    """The Chrome trace document the writer must produce, built the
    plain way: pid 1, tids 1/2/3 for the fixed tracks and 100, 101, ...
    for the others in ring order, ``ts``/``dur`` in microseconds, the
    ``M`` records first."""
    fixed = {"cpu": 1, "nma": 2, "driver": 3}
    dynamic = iter(range(100, 1 << 30))
    tids = {}
    records = []
    for event in ring.events():
        if event.track not in tids:
            tids[event.track] = fixed.get(event.track) or next(dynamic)
        record = {
            "name": event.name, "ph": event.ph, "ts": event.ts_ns / 1e3,
            "pid": 1, "tid": tids[event.track],
        }
        if event.ph == "X":
            record["dur"] = (event.dur_ns or 0.0) / 1e3
        if event.ph == "i":
            record["s"] = "t"
        if event.args:
            record["args"] = json.loads(json.dumps(event.args))
        records.append(record)
    metadata = [{
        "name": "process_name", "ph": "M", "ts": 0.0, "pid": 1, "tid": 0,
        "args": {"name": "xfm-repro"},
    }] + [
        {"name": "thread_name", "ph": "M", "ts": 0.0, "pid": 1, "tid": tid,
         "args": {"name": track}}
        for track, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    return {
        "traceEvents": metadata + records,
        "displayTimeUnit": "ns",
        "otherData": {"dropped_events": ring.dropped},
    }


#: Strings JSON must escape, mixed with arbitrary text.
_TEXT = st.text(alphabet=st.sampled_from('"\\/\n\t\x00\x1f\x7fé✓\U0001f600ab'),
                max_size=6) | st.text(max_size=6)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_ARG_VALUES = (
    st.booleans() | st.integers() | _FLOATS | _TEXT | st.none()
    | st.lists(st.integers() | _TEXT | st.none(), max_size=3)
)
_EVENTS = st.lists(
    st.builds(
        trace.TraceEvent,
        name=_TEXT,
        ph=st.sampled_from([trace.PH_COMPLETE, trace.PH_INSTANT, trace.PH_METADATA]),
        ts_ns=_FLOATS | st.integers(-(10**12), 10**12),
        track=st.sampled_from(["cpu", "nma", "driver", "refresh/ch0"]) | _TEXT,
        dur_ns=st.none() | _FLOATS,
        args=st.none() | st.dictionaries(_TEXT, _ARG_VALUES, max_size=4),
    ),
    max_size=14,
)


class TestWriterRoundTrip:
    """``json.loads`` of the streamed file is the spec document."""

    @settings(max_examples=60)
    @given(events=_EVENTS, capacity=st.integers(1, 10), chunk=st.integers(1, 5))
    @example(
        events=[trace.TraceEvent(f"e{i}", "i", float(i), "cpu") for i in range(5)],
        capacity=2, chunk=1,
    )
    def test_parsed_output_is_the_spec_document(self, events, capacity, chunk):
        ring = trace.TraceRing(capacity=capacity)
        _append(ring, *events)
        out = io.StringIO()
        with mock.patch.object(trace, "_WRITE_CHUNK", chunk):
            trace.write_chrome_trace(ring, out)
        doc = json.loads(out.getvalue())
        assert doc == _spec_document(ring)
        assert list(doc) == ["traceEvents", "displayTimeUnit", "otherData"]
        # One record per line, between the opening and closing lines.
        assert len(out.getvalue().splitlines()) == len(doc["traceEvents"]) + 2

    def test_overflowed_ring_reports_drops(self):
        ring = trace.TraceRing(capacity=3)
        for i in range(7):
            _append(ring, trace.TraceEvent(f"e{i}", "X", float(i), "nma", 1.0))
        doc = _export(ring)
        assert doc["otherData"]["dropped_events"] == 4
        assert [e["name"] for e in doc["traceEvents"][2:]] == ["e4", "e5", "e6"]

    def test_non_finite_floats_are_written_as_json_does(self):
        ring = trace.TraceRing()
        _append(ring, trace.TraceEvent(
            "odd", "X", float("inf"), "cpu", float("nan"),
            args={"x": float("-inf")},
        ))
        text = io.StringIO()
        trace.write_chrome_trace(ring, text)
        assert '"ts":Infinity' in text.getvalue()
        assert '"dur":NaN' in text.getvalue()
        assert '"args":{"x":-Infinity}' in text.getvalue()


class TestChromeExport:
    def _trace_doc(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            trace.complete(
                "ref_window", trace.refresh_track(0), 0.0, 350.0,
                args={"ref_index": 0},
            )
            trace.instant("doorbell", trace.TRACK_DRIVER)
            trace.complete("nma_compress", trace.TRACK_NMA, 400.0, 276.0)
            trace.fallback("queue_full", "compress")
        return _export(ring)

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
