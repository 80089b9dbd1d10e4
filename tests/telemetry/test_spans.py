"""Span causality: nesting, parent ids, leaf stamping, determinism."""

from repro.sim import CLOCK
from repro.sim.context import run_context
from repro.telemetry import spans, trace
from repro.telemetry.session import TelemetrySession


def _events(ring):
    return {e.args["span"]: e for e in ring.events() if "span" in e.args}


class TestNesting:
    def test_child_records_parent_id(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            outer = spans.begin("outer", "tier")
            spans.end(spans.begin("inner", "tier"))
            spans.end(outer)
        by_id = _events(ring)
        inner = next(
            e for e in by_id.values() if e.name == "inner"
        )
        assert inner.args["parent"] == outer.span_id
        outer_event = by_id[outer.span_id]
        assert "parent" not in outer_event.args

    def test_siblings_share_parent_but_not_ids(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            outer = spans.begin("outer", "tier")
            a = spans.begin("a", "tier")
            spans.end(a)
            b = spans.begin("b", "tier")
            spans.end(b)
            spans.end(outer)
        assert a.span_id != b.span_id
        by_id = _events(ring)
        assert by_id[a.span_id].args["parent"] == outer.span_id
        assert by_id[b.span_id].args["parent"] == outer.span_id

    def test_duration_is_clock_delta(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            CLOCK.set_ns(0)
            handle = spans.begin("op", "tier")
            CLOCK.advance_ns(1500.0)
            dur = spans.end(handle)
        assert dur == 1500.0
        (event,) = ring.events()
        assert event.ts_ns == 0.0
        assert event.dur_ns == 1500.0

    def test_end_unwinds_leaked_inner_spans(self):
        with run_context(ring=trace.TraceRing()):
            outer = spans.begin("outer", "tier")
            spans.begin("leaked", "tier")
            spans.end(outer)
            assert spans.current_span_id() is None

    def test_args_and_extra_merge_into_event(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            handle = spans.begin("op", "tier", args={"vaddr": 4096})
            spans.end(handle, extra={"victims": 3})
        (event,) = ring.events()
        assert event.args["vaddr"] == 4096
        assert event.args["victims"] == 3


class TestLeafStamping:
    def test_emit_under_parents_to_open_span(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            store = spans.begin("store", "tier")
            leaf = spans.emit_under("cpu_compress", "cpu", 0.0, 10.0)
            spans.end(store)
        by_id = _events(ring)
        assert by_id[leaf].args["parent"] == store.span_id
        assert by_id[leaf].name == "cpu_compress"

    def test_emit_under_outside_any_span_has_no_parent(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            leaf = spans.emit_under("cpu_compress", "cpu", 0.0, 10.0)
        assert "parent" not in _events(ring)[leaf].args

    def test_instant_under_tags_parent(self):
        ring = trace.TraceRing()
        with run_context(ring=ring):
            store = spans.begin("store", "tier")
            spans.instant_under("poison_page", "tier")
            spans.end(store)
        instant = next(e for e in ring.events() if e.name == "poison_page")
        assert instant.args["parent"] == store.span_id


class TestDeterminism:
    def test_fresh_ring_starts_at_id_1(self):
        with run_context(ring=trace.TraceRing()):
            first = spans.begin("a", "tier")
            spans.end(first)
            second = spans.begin("b", "tier")
            spans.end(second)
        with run_context(ring=trace.TraceRing()):
            again = spans.begin("a", "tier")
            spans.end(again)
        assert first.span_id == again.span_id == 1
        assert second.span_id == 2

    def test_session_entry_resets_ids(self):
        with TelemetrySession():
            first = spans.begin("a", "tier")
            spans.end(first)
        with TelemetrySession():
            again = spans.begin("a", "tier")
            spans.end(again)
        assert first.span_id == again.span_id == 1


class TestNestedSessions:
    def test_inner_session_leaves_outer_ids_and_parents_alone(self):
        with TelemetrySession() as outer:
            for _ in range(5):
                spans.end(spans.begin("op", "tier"))
            parent = spans.begin("P", "tier")
            with TelemetrySession() as inner:
                spans.end(spans.begin("inner", "tier"))
            child = spans.begin("child", "tier")
            spans.end(child)
            spans.end(parent)
        outer_ids = [e.args["span"] for e in outer.ring.events()]
        assert outer_ids == [1, 2, 3, 4, 5, 7, 6]
        assert len(set(outer_ids)) == len(outer_ids)
        assert _events(outer.ring)[child.span_id].args["parent"] == 6
        assert [e.args["span"] for e in inner.ring.events()] == [1]
