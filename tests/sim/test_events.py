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
