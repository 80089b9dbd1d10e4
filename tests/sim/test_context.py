"""The run context: nested overrides, guards that agree, exact restore.

Hypothesis generates random nestings of ``run_context`` overrides —
ring, flight recorder, fault injector, validation flag and clock rebase,
each passed, switched off or inherited — with an exception raised at a
random depth. At every depth the hot-path guards must agree with the
current context's fields; after every exit the enclosing context must
be current again (by identity) and the clock ticks must be back.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.resilience import faults
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sim import CLOCK
from repro.sim.context import RunContext, current, run_context
from repro.telemetry import flightrec, spans, trace
from repro.telemetry.flightrec import FlightRecorder
from repro.validation import hooks

_PLAN = FaultPlan(
    seed=1, specs=(FaultSpec(faults.DFM_LINK_ERROR, probability=1.0),)
)


class _Probe:
    """A structure whose checkpoints are counted, not checked."""

    checked = 0


def _count_check(probe):
    _Probe.checked += 1


hooks.register_checker(_Probe, _count_check)


class _Boom(Exception):
    pass


def _field(values):
    """An override: absent (inherit), or one of ``values``."""
    return st.one_of(st.just("inherit"), st.sampled_from(values))


_level = st.fixed_dictionaries({
    "ring": _field([None, "new"]),
    "flight": _field([None, "new"]),
    "injector": _field([None, "new"]),
    "validation": _field([False, True]),
    "clock_ns": st.one_of(st.none(), st.sampled_from([0.0, 250.0, 3906.25])),
})

_MAKE = {
    "ring": trace.TraceRing,
    "flight": FlightRecorder,
    "injector": lambda: FaultInjector(_PLAN),
}


def _overrides(level):
    overrides = {}
    for name, value in level.items():
        if value == "inherit" or (name == "clock_ns" and value is None):
            continue
        overrides[name] = _MAKE[name]() if value == "new" else value
    return overrides


def _check_guards(ctx):
    assert trace.tracing_enabled() == (ctx.ring is not None)
    assert faults.injection_enabled() == (ctx.injector is not None)
    assert hooks.validation_enabled() == ctx.validation
    assert (faults.fire(faults.DFM_LINK_ERROR) is None) == (
        ctx.injector is None
    )
    dumps = len(ctx.flight.dump_names) if ctx.flight is not None else 0
    assert (flightrec.trigger(flightrec.REASON_POISON) is None) == (
        ctx.flight is None
    )
    if ctx.flight is not None:
        assert len(ctx.flight.dump_names) == dumps + 1
    checked = _Probe.checked
    hooks.checkpoint(_Probe())
    assert _Probe.checked == checked + ctx.validation
    if ctx.ring is not None:
        events = len(ctx.ring)
        trace.instant("probe", trace.TRACK_CPU)
        assert len(ctx.ring) == events + 1


def _nest(levels, depth, raise_at):
    if depth == raise_at:
        raise _Boom
    if depth == len(levels):
        return
    outer, ticks = current(), CLOCK.now_ticks()
    overrides = _overrides(levels[depth])
    try:
        with run_context(**overrides) as ctx:
            assert current() is ctx and ctx is not outer
            for name in RunContext.__slots__:
                expected = overrides.get(name, getattr(outer, name))
                assert getattr(ctx, name) is expected, name
            if "clock_ns" in overrides:
                assert CLOCK.now_ns() == overrides["clock_ns"]
                CLOCK.advance_ns(1000.0)
            _check_guards(ctx)
            handle = None
            if ctx.ring is not None:
                handle = spans.begin("level", "tier")
                assert spans.current_span_id() == handle.span_id
            _nest(levels, depth + 1, raise_at)
            assert current() is ctx
            _check_guards(ctx)
            if handle is not None:
                stack = list(ctx.ring.open_spans)
                spans.end(handle)
                assert ctx.ring.open_spans == stack[:-1]
    finally:
        assert current() is outer
        assert CLOCK.now_ticks() == ticks


@settings(max_examples=60)
@given(
    levels=st.lists(_level, min_size=1, max_size=5),
    raise_at=st.one_of(st.none(), st.integers(0, 5)),
)
@example(
    levels=[
        {"ring": "new", "flight": "new", "injector": "inherit",
         "validation": "inherit", "clock_ns": 0.0},
        {"ring": None, "flight": None, "injector": "new",
         "validation": True, "clock_ns": None},
    ],
    raise_at=None,
)
def test_nested_overrides_guard_and_restore(levels, raise_at):
    root, ticks = current(), CLOCK.now_ticks()
    try:
        _nest(levels, 0, raise_at)
        assert raise_at is None or raise_at > len(levels)
    except _Boom:
        assert raise_at is not None and raise_at <= len(levels)
    assert current() is root and CLOCK.now_ticks() == ticks


def test_passing_none_switches_a_field_off_inside_a_traced_scope():
    ring = trace.TraceRing()
    with run_context(ring=ring):
        with run_context(ring=None):
            assert not trace.tracing_enabled()
            trace.instant("hidden", trace.TRACK_CPU)
        trace.instant("seen", trace.TRACK_CPU)
    assert [e.name for e in ring.events()] == ["seen"]
