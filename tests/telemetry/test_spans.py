"""Span causality: nesting, parent ids, leaf stamping, determinism."""

import pytest

from repro.sim import CLOCK
from repro.telemetry import spans, trace


@pytest.fixture(autouse=True)
def _clean_state():
    trace.set_tracing(False)
    spans.reset()
    yield
    trace.set_tracing(False)
    spans.reset()


def _events(ring):
    return {e.args["span"]: e for e in ring.events() if "span" in e.args}


class TestNesting:
    def test_child_records_parent_id(self):
        with trace.tracing() as ring:
            with spans.span("outer", "tier") as outer:
                with spans.span("inner", "tier"):
                    pass
        by_id = _events(ring)
        inner = next(
            e for e in by_id.values() if e.name == "inner"
        )
        assert inner.args["parent"] == outer.span_id
        outer_event = by_id[outer.span_id]
        assert "parent" not in outer_event.args

    def test_siblings_share_parent_but_not_ids(self):
        with trace.tracing() as ring:
            with spans.span("outer", "tier") as outer:
                with spans.span("a", "tier") as a:
                    pass
                with spans.span("b", "tier") as b:
                    pass
        assert a.span_id != b.span_id
        by_id = _events(ring)
        assert by_id[a.span_id].args["parent"] == outer.span_id
        assert by_id[b.span_id].args["parent"] == outer.span_id

    def test_duration_is_clock_delta(self):
        with trace.tracing() as ring:
            CLOCK.set_ns(0)
            handle = spans.begin("op", "tier")
            CLOCK.advance_ns(1500.0)
            dur = spans.end(handle)
        assert dur == 1500.0
        (event,) = ring.events()
        assert event.ts_ns == 0.0
        assert event.dur_ns == 1500.0

    def test_end_unwinds_leaked_inner_spans(self):
        with trace.tracing():
            outer = spans.begin("outer", "tier")
            spans.begin("leaked", "tier")
            spans.end(outer)
            assert spans.current_span_id() is None

    def test_args_and_extra_merge_into_event(self):
        with trace.tracing() as ring:
            handle = spans.begin("op", "tier", args={"vaddr": 4096})
            spans.end(handle, extra={"victims": 3})
        (event,) = ring.events()
        assert event.args["vaddr"] == 4096
        assert event.args["victims"] == 3


class TestLeafStamping:
    def test_emit_under_parents_to_open_span(self):
        with trace.tracing() as ring:
            with spans.span("store", "tier") as store:
                leaf = spans.emit_under("cpu_compress", "cpu", 0.0, 10.0)
        by_id = _events(ring)
        assert by_id[leaf].args["parent"] == store.span_id
        assert by_id[leaf].name == "cpu_compress"

    def test_emit_under_outside_any_span_has_no_parent(self):
        with trace.tracing() as ring:
            leaf = spans.emit_under("cpu_compress", "cpu", 0.0, 10.0)
        assert "parent" not in _events(ring)[leaf].args

    def test_instant_under_tags_parent(self):
        with trace.tracing() as ring:
            with spans.span("store", "tier") as store:
                spans.instant_under("poison_page", "tier")
        instant = next(e for e in ring.events() if e.name == "poison_page")
        assert instant.args["parent"] == store.span_id


class TestDeterminism:
    def test_reset_restarts_ids(self):
        with trace.tracing():
            with spans.span("a", "tier") as first:
                pass
        spans.reset()
        with trace.tracing():
            with spans.span("a", "tier") as again:
                pass
        assert first.span_id == again.span_id == 1

    def test_session_entry_resets_ids(self):
        from repro.telemetry import TelemetrySession

        with TelemetrySession():
            with spans.span("a", "tier") as first:
                pass
        with TelemetrySession():
            with spans.span("a", "tier") as again:
                pass
        assert first.span_id == again.span_id == 1
