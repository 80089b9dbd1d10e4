"""Generated properties of forward-only simulated time.

* **Order.** Random schedules with self-rescheduling chains and
  equal-tick ties fire in (tick, schedule order), each at its exact
  tick, and the clock never decreases from one event to the next.
* **Borrowed timelines.** A callback that runs the clock past the next
  event raises ``ConfigError``; the same work inside ``scoped()``
  completes with every event at its own tick.
* **Window stream.** For random skip-ahead answers,
  ``RefreshScheduler.schedule_windows`` delivers the same window indices
  and the same ``ref_window`` spans as a plain reference loop.

Tier-1 runs a short budget; each ``fuzz``-marked twin runs the long one
of :mod:`tests.hypothesis_settings`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.device import DDR5_32GB, timings_for_device
from repro.dram.refresh import RefreshScheduler, make_refresh_policy
from repro.dram.refresh_policy import REFRESH_POLICIES
from repro.errors import ConfigError
from repro.sim import EventScheduler, SimClock, ticks_to_ns
from repro.sim.context import run_context
from repro.telemetry import trace
from tests.hypothesis_settings import fuzz_settings

TIMINGS = timings_for_device(DDR5_32GB)

# -- order ---------------------------------------------------------------------

#: (start tick, chain length, step ticks, scoped work ticks) per chain;
#: small ticks and zero steps make equal-tick ties common.
_chains = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.integers(0, 4),
        st.integers(0, 3),
        st.integers(0, 20),
    ),
    min_size=1,
    max_size=12,
)


def check_fire_order(chains):
    clock = SimClock()
    events = EventScheduler(clock=clock)
    fired = []
    #: Reference schedule: (tick, seq, chain, link) in schedule order.
    scheduled = []

    def schedule(ticks, chain, link):
        scheduled.append((ticks, len(scheduled), chain, link))
        events.schedule_at_ticks(ticks, lambda: fire(chain, link))

    def fire(chain, link):
        fired.append((clock.now_ticks(), chain, link))
        _, length, step, work = chains[chain]
        with clock.scoped():
            clock.set_ticks(clock.now_ticks() + work)
        if link < length:
            schedule(clock.now_ticks() + step, chain, link + 1)

    for chain, (start, *_) in enumerate(chains):
        schedule(start, chain, 0)
    count = events.run()

    # Every event ever scheduled, in (tick, schedule order).
    expected = [(t, chain, link) for t, _, chain, link in sorted(scheduled)]
    assert fired == expected
    assert count == sum(length + 1 for _, length, _, _ in chains)
    ticks = [t for t, _, _ in fired]
    assert ticks == sorted(ticks)
    assert clock.now_ticks() == ticks[-1]
    assert len(events) == 0


@given(_chains)
@settings(max_examples=40)
def test_events_fire_in_tick_then_schedule_order(chains):
    check_fire_order(chains)


@pytest.mark.fuzz
@given(_chains)
@fuzz_settings(max_examples=40)
def test_fuzz_events_fire_in_tick_then_schedule_order(chains):
    check_fire_order(chains)


# -- borrowed timelines --------------------------------------------------------

_runaways = st.tuples(
    st.lists(st.integers(0, 1_000), min_size=2, max_size=10, unique=True),
    st.integers(0, 8),
    st.integers(1, 500),
)


def check_runaway(case):
    ticks, pick, overshoot = case
    ticks = sorted(ticks)
    index = pick % (len(ticks) - 1)  # any event but the last
    gap = ticks[index + 1] - ticks[index]

    def drive(scoped):
        clock = SimClock()
        events = EventScheduler(clock=clock)
        seen = []

        def note():
            seen.append(clock.now_ticks())

        def work():
            note()
            if scoped:
                with clock.scoped():
                    clock.set_ticks(clock.now_ticks() + gap + overshoot)
            else:
                clock.set_ticks(clock.now_ticks() + gap + overshoot)

        for i, t in enumerate(ticks):
            events.schedule_at_ticks(t, work if i == index else note)
        events.run()
        return seen

    with pytest.raises(ConfigError, match="work"):
        drive(scoped=False)
    assert drive(scoped=True) == ticks


@given(_runaways)
@settings(max_examples=40)
def test_unscoped_runaway_raises_and_scoped_work_completes(case):
    check_runaway(case)


@pytest.mark.fuzz
@given(_runaways)
@fuzz_settings(max_examples=40)
def test_fuzz_unscoped_runaway_raises_and_scoped_work_completes(case):
    check_runaway(case)


# -- window stream -------------------------------------------------------------

_streams = st.tuples(
    st.sampled_from(REFRESH_POLICIES),
    st.integers(0, 1_000_000),
    st.integers(0, 60),
    # Per delivered window: None (the next one) or an offset from it,
    # negative and zero offsets included.
    st.lists(st.one_of(st.none(), st.integers(-3, 25)), max_size=40),
)


def _spans(ring):
    return [
        (e.ts_ns, e.dur_ns, e.track, e.args)
        for e in ring.events()
        if e.name == "ref_window"
    ]


def check_window_stream(case):
    policy_name, start, span, offsets = case
    refresh = RefreshScheduler(
        DDR5_32GB,
        TIMINGS,
        policy=make_refresh_policy(policy_name, DDR5_32GB, TIMINGS),
    )
    policy = refresh.policy
    until_ns = ticks_to_ns(policy.start_ticks(start + span))

    def answer(n, index):
        if n < len(offsets) and offsets[n] is not None:
            return index + offsets[n]
        return None

    clock = SimClock()
    events = EventScheduler(clock=clock)
    delivered = []

    def on_window(window):
        assert clock.now_ticks() == window.start_ticks
        delivered.append(window.ref_index)
        return answer(len(delivered) - 1, window.ref_index)

    ring = trace.TraceRing()
    with run_context(ring=ring):
        count = refresh.schedule_windows(
            events, until_ns, on_window, start_index=start
        )
        events.run()

    # Reference: a plain loop over the same answers.
    expected = []
    reference = trace.TraceRing()
    with run_context(ring=reference):
        index = start
        while index < start + span:
            expected.append(index)
            refresh.trace_window(index)
            wanted = answer(len(expected) - 1, index)
            index += 1
            if wanted is not None and wanted > index:
                for skipped in range(index, min(wanted, start + span)):
                    refresh.trace_window(skipped)
                index = wanted
    assert count == span
    assert delivered == expected
    assert _spans(ring) == _spans(reference)
    assert len(_spans(ring)) == span


@given(_streams)
@settings(max_examples=40)
def test_window_stream_matches_a_reference_loop(case):
    check_window_stream(case)


@pytest.mark.fuzz
@given(_streams)
@fuzz_settings(max_examples=40)
def test_fuzz_window_stream_matches_a_reference_loop(case):
    check_window_stream(case)
