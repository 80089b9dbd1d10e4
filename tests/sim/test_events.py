"""EventScheduler: ordering, tie-breaking, horizons, forward-only time."""

import random

import pytest

from repro.errors import ConfigError
from repro.sim import EventScheduler, SimClock, ns_to_ticks


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def events(clock):
    return EventScheduler(clock=clock)


class TestOrdering:
    def test_events_fire_in_timestamp_order(self, events, clock):
        fired = []
        events.schedule(30.0, lambda: fired.append(("c", clock.now_ns())))
        events.schedule(10.0, lambda: fired.append(("a", clock.now_ns())))
        events.schedule(20.0, lambda: fired.append(("b", clock.now_ns())))
        assert events.run() == 3
        assert fired == [("a", 10.0), ("b", 20.0), ("c", 30.0)]

    def test_equal_timestamps_fire_in_schedule_order(self, events):
        fired = []
        for tag in ("first", "second", "third"):
            events.schedule(5.0, lambda tag=tag: fired.append(tag))
        events.run()
        assert fired == ["first", "second", "third"]

    def test_equal_timestamp_order_is_stable_under_any_interleaving(self):
        # Property: however a seeded stream of (time, tag) schedules
        # lands in the heap, equal-time events fire in schedule order —
        # a run is a pure function of the schedule.
        rng = random.Random(20260809)
        for _ in range(25):
            events = EventScheduler(clock=SimClock())
            schedule = [
                (float(rng.randrange(8)), seq) for seq in range(40)
            ]
            fired = []
            for t_ns, seq in schedule:
                events.schedule(
                    t_ns, lambda t=t_ns, s=seq: fired.append((t, s))
                )
            events.run()
            assert fired == sorted(schedule)

    def test_step_sets_clock_to_event_time(self, events, clock):
        events.schedule(12.5, lambda: None)
        assert events.step() is True
        assert clock.now_ns() == 12.5
        assert events.step() is False

    def test_callbacks_can_self_reschedule(self, events):
        fired = []

        def tick(n):
            fired.append(n)
            if n < 4:
                events.schedule_after(10.0, lambda: tick(n + 1))

        events.schedule(0.0, lambda: tick(0))
        assert events.run() == 5
        assert fired == [0, 1, 2, 3, 4]

    def test_scoped_callback_work_leaves_the_next_event_exact(
        self, events, clock
    ):
        # A callback models work in a borrowed timeline; the clock is
        # back at its event's tick when it returns, so the next event
        # fires at its own exact tick.
        seen = []

        def work():
            with clock.scoped():
                clock.advance_ns(500.0)

        events.schedule(10.0, work)
        events.schedule(20.0, lambda: seen.append(clock.now_ns()))
        events.run()
        assert seen == [20.0]

    def test_exact_tick_scheduling_has_no_float_round_trip(
        self, events, clock
    ):
        # 1/3 tREFI is not float-representable; the tick API must land
        # the event on the exact integer tick the policy computed.
        ticks = ns_to_ticks(3906.25) // 3
        seen = []
        events.schedule_at_ticks(ticks, lambda: seen.append(clock.now_ticks()))
        events.run()
        assert seen == [ticks]


class TestGuards:
    def test_scheduling_in_the_past_raises(self, events, clock):
        clock.set_ns(100.0)
        with pytest.raises(ConfigError):
            events.schedule(99.0, lambda: None)

    def test_scheduling_at_now_is_allowed(self, events, clock):
        clock.set_ns(100.0)
        events.schedule(100.0, lambda: None)
        assert events.run() == 1

    def test_negative_delay_raises(self, events):
        with pytest.raises(ConfigError):
            events.schedule_after(-1.0, lambda: None)

    def test_callback_leaving_the_clock_past_the_next_event_raises(
        self, events, clock
    ):
        def runaway():
            clock.advance_ns(500.0)

        events.schedule(10.0, runaway)
        events.schedule(20.0, lambda: None)
        with pytest.raises(ConfigError, match="runaway"):
            events.run()
        assert clock.now_ns() == 510.0  # never rewound

    def test_clock_moved_past_the_head_between_steps_raises(
        self, events, clock
    ):
        events.schedule(10.0, lambda: None)
        clock.set_ns(11.0)
        with pytest.raises(ConfigError, match="past the next event"):
            events.step()


class TestHorizons:
    def test_run_until_inclusive_boundary(self, events):
        fired = []
        for t in (1.0, 2.0, 3.0):
            events.schedule(t, lambda t=t: fired.append(t))
        assert events.run_until(2.0) == 2
        assert fired == [1.0, 2.0]
        assert len(events) == 1

    def test_run_until_leaves_clock_at_last_fired_event(self, events, clock):
        events.schedule(1.0, lambda: None)
        events.schedule(5.0, lambda: None)
        events.run_until(3.0)
        assert clock.now_ns() == 1.0

    def test_run_max_events_bound(self, events):
        for t in range(10):
            events.schedule(float(t), lambda: None)
        assert events.run(max_events=4) == 4
        assert len(events) == 6


def _fire_order(stream, others, streamed):
    """Fire a sorted tick ``stream`` beside ``others`` (tick, tag) events
    scheduled after it; every third stream event schedules a child at
    its own tick. ``streamed`` schedules each stream event when the one
    before it fires, from a reserved block of sequence numbers, instead
    of all of them up front."""
    events = EventScheduler(clock=SimClock())
    fired = []

    def arrive(i):
        fired.append(("stream", i))
        if i % 3 == 0:
            events.schedule_at_ticks(
                stream[i], lambda i=i: fired.append(("child", i))
            )

    events.schedule_at_ticks(stream[0], lambda: fired.append(("before", 0)))
    if streamed:
        first = events.reserve(len(stream))

        def fire(i):
            if i + 1 < len(stream):
                events.schedule_at_ticks(
                    stream[i + 1], lambda: fire(i + 1), seq=first + i + 1
                )
            arrive(i)

        events.schedule_at_ticks(stream[0], lambda: fire(0), seq=first)
    else:
        for i, ticks in enumerate(stream):
            events.schedule_at_ticks(ticks, lambda i=i: arrive(i))
    for ticks, tag in others:
        events.schedule_at_ticks(ticks, lambda tag=tag: fired.append(tag))
    events.run()
    return fired


class TestReservedSequence:
    """A stream scheduled one event at a time from ``reserve``d sequence
    numbers pops exactly as the same stream scheduled up front."""

    def test_ties_break_as_if_scheduled_up_front(self):
        stream = [10, 20, 20, 30]
        others = [(20, ("other", 20)), (30, ("other", 30))]
        expected = [
            ("before", 0), ("stream", 0), ("child", 0), ("stream", 1),
            ("stream", 2), ("other", 20), ("stream", 3), ("other", 30),
            ("child", 3),
        ]
        assert _fire_order(stream, others, streamed=False) == expected
        assert _fire_order(stream, others, streamed=True) == expected

    def test_seeded_streams_with_ties(self):
        rng = random.Random(53)
        for _ in range(25):
            stream = sorted(rng.randrange(12) for _ in range(30))
            others = [
                (rng.randrange(12), ("other", n)) for n in range(15)
            ]
            assert _fire_order(stream, others, streamed=True) == (
                _fire_order(stream, others, streamed=False)
            )

    def test_reserve_hands_out_a_block(self, events):
        events.schedule(1.0, lambda: None)
        assert events.reserve(3) == 1
        assert events.reserve(0) == 4
        events.schedule(1.0, lambda: None)
        assert [seq for _, seq, _ in sorted(events._heap)] == [0, 4]

    def test_unreserved_sequence_numbers_raise(self, events):
        with pytest.raises(ConfigError):
            events.reserve(-1)
        first = events.reserve(2)
        with pytest.raises(ConfigError, match="not handed out"):
            events.schedule_at_ticks(5, lambda: None, seq=first + 2)
        with pytest.raises(ConfigError, match="not handed out"):
            events.schedule_at_ticks(5, lambda: None, seq=-1)
