"""The refresh-window stream as a next-event simulation: horizon
arithmetic, the consumer's skip-ahead answer, and the accounting of the
windows it skips (``RefreshScheduler.schedule_windows``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.device import DDR5_32GB, timings_for_device
from repro.dram.refresh import RefreshScheduler, make_refresh_policy
from repro.dram.refresh_policy import REFRESH_POLICIES
from repro.errors import ConfigError
from repro.sim import EventScheduler, SimClock, ns_to_ticks, ticks_to_ns
from repro.sim.context import run_context
from repro.telemetry import trace

TIMINGS = timings_for_device(DDR5_32GB)


def _refresh(policy_name):
    return RefreshScheduler(
        DDR5_32GB,
        TIMINGS,
        policy=make_refresh_policy(policy_name, DDR5_32GB, TIMINGS),
    )


def _run_stream(refresh, until_ns, answer=lambda window: None, start_index=0):
    """Drain one stream; returns (declared count, fired (index, tick)s)."""
    clock = SimClock()
    events = EventScheduler(clock=clock)
    fired = []

    def on_window(window):
        assert clock.now_ticks() == window.start_ticks
        fired.append((window.ref_index, window.start_ticks))
        return answer(window)

    count = refresh.schedule_windows(
        events, until_ns, on_window, start_index=start_index
    )
    # A stream that loops would never drain; bound the run to notice.
    assert events.run(max_events=10_000) < 10_000
    assert len(events) == 0
    return count, fired


def _brute_force_indices(policy, start_index, until_ns):
    end_ticks = ns_to_ticks(until_ns)
    indices = []
    index = start_index
    while policy.start_ticks(index) < end_ticks:
        indices.append(index)
        index += 1
    return indices


class TestHorizonArithmetic:
    @settings(max_examples=150)
    @given(
        policy_name=st.sampled_from(REFRESH_POLICIES),
        start_index=st.integers(0, 3_000_000),
        span_windows=st.integers(0, 70),
        nudge_ticks=st.sampled_from((-1, 0, 1, 777)),
    )
    def test_count_and_fired_windows_match_brute_force(
        self, policy_name, start_index, span_windows, nudge_ticks
    ):
        """``nudge_ticks == 0`` puts the horizon exactly on a window
        tick (that window is outside); ``span_windows == 0`` with a
        non-positive nudge is the empty horizon."""
        refresh = _refresh(policy_name)
        policy = refresh.policy
        until_ns = ticks_to_ns(
            policy.start_ticks(start_index + span_windows) + nudge_ticks
        )
        expected = _brute_force_indices(policy, start_index, until_ns)
        count, fired = _run_stream(refresh, until_ns, start_index=start_index)
        assert count == len(expected)
        assert fired == [(i, policy.start_ticks(i)) for i in expected]

    @pytest.mark.parametrize("policy_name", REFRESH_POLICIES)
    def test_first_index_at_or_after_is_the_closed_form(self, policy_name):
        policy = _refresh(policy_name).policy
        rng = random.Random(4)
        for _ in range(300):
            index = rng.randrange(0, 5_000_000)
            ticks = policy.start_ticks(index)
            assert policy.first_index_at_or_after_ticks(ticks) == index
            assert policy.first_index_at_or_after_ticks(ticks + 1) == index + 1
            assert policy.first_index_at_or_after_ticks(ticks - 1) == index
        assert policy.first_index_at_or_after(-5.0) == 0

    @pytest.mark.parametrize("policy_name", REFRESH_POLICIES)
    def test_windows_between_uses_the_same_bounds(self, policy_name):
        refresh = _refresh(policy_name)
        start_ns, end_ns = 2.5 * TIMINGS.trefi_ns, 6 * TIMINGS.trefi_ns
        windows = refresh.windows_between(start_ns, end_ns)
        assert [w.ref_index for w in windows] == [
            i
            for i in _brute_force_indices(refresh.policy, 0, end_ns)
            if refresh.policy.start_ticks(i) >= ns_to_ticks(start_ns)
        ]
        assert refresh.windows_between(end_ns, start_ns) == []


class TestConsumerAnswer:
    """``on_window``'s return value is the next window index needed."""

    HORIZON_NS = 40 * TIMINGS.trefi_ns

    @pytest.mark.parametrize("policy_name", REFRESH_POLICIES)
    def test_skip_ahead_fires_only_the_named_windows(self, policy_name):
        refresh = _refresh(policy_name)
        jumps = {0: 7, 7: 8, 9: 31}
        count, fired = _run_stream(
            refresh, self.HORIZON_NS, lambda w: jumps.get(w.ref_index)
        )
        assert count == 40 * refresh.policy.windows_per_trefi
        assert [index for index, _ in fired] == [0, 7, 8, 9] + list(
            range(31, count)
        )

    @pytest.mark.parametrize("policy_name", REFRESH_POLICIES)
    @pytest.mark.parametrize(
        "answer",
        [
            lambda w: 0,  # a past index
            lambda w: w.ref_index,  # the current one
            lambda w: w.ref_index + 1,  # the next one, spelled out
            lambda w: -3,
        ],
    )
    def test_past_or_current_index_means_the_next_window(
        self, policy_name, answer
    ):
        refresh = _refresh(policy_name)
        count, fired = _run_stream(refresh, self.HORIZON_NS, answer)
        assert [index for index, _ in fired] == list(range(count))

    @pytest.mark.parametrize("policy_name", REFRESH_POLICIES)
    @pytest.mark.parametrize("overshoot", [0, 1, 10**12])
    def test_index_at_or_beyond_the_horizon_ends_the_stream(
        self, policy_name, overshoot
    ):
        refresh = _refresh(policy_name)
        total = 40 * refresh.policy.windows_per_trefi
        count, fired = _run_stream(
            refresh,
            self.HORIZON_NS,
            lambda w: total + overshoot if w.ref_index == 4 else None,
        )
        assert count == total
        assert [index for index, _ in fired] == [0, 1, 2, 3, 4]

    def test_clock_advancing_consumer_still_gets_exact_ticks(self):
        """A consumer that models work past the next window start runs
        it in a borrowed timeline; every window still fires at its
        exact tick."""
        refresh = _refresh("all-bank")
        clock = SimClock()
        events = EventScheduler(clock=clock)
        seen = []

        def on_window(window):
            seen.append(clock.now_ticks())
            with clock.scoped():
                clock.advance_ns(2.5 * TIMINGS.trefi_ns)

        refresh.schedule_windows(events, 6 * TIMINGS.trefi_ns, on_window)
        events.run()
        assert seen == [refresh.policy.start_ticks(i) for i in range(6)]

    def test_unscoped_clock_advancing_consumer_raises(self):
        refresh = _refresh("all-bank")
        clock = SimClock()
        events = EventScheduler(clock=clock)

        def on_window(window):
            clock.advance_ns(2.5 * TIMINGS.trefi_ns)

        refresh.schedule_windows(events, 6 * TIMINGS.trefi_ns, on_window)
        with pytest.raises(ConfigError, match="in the past"):
            events.run()


class TestSkippedWindowsAreAccounted:
    @pytest.mark.parametrize("policy_name", REFRESH_POLICIES)
    def test_every_window_is_traced_in_index_order(self, policy_name):
        refresh = _refresh(policy_name)
        horizon_ns = 12 * TIMINGS.trefi_ns
        jumps = {1: 9, 10: 10**9}
        ring = trace.TraceRing()
        with run_context(ring=ring):
            count, fired = _run_stream(
                refresh, horizon_ns, lambda w: jumps.get(w.ref_index)
            )
        assert [index for index, _ in fired] == [0, 1, 9, 10]
        spans = [e for e in ring.events() if e.name == "ref_window"]
        assert [e.args["ref_index"] for e in spans] == list(range(count))
        every_window = trace.TraceRing()
        with run_context(ring=every_window):
            _run_stream(refresh, horizon_ns)
        assert [
            (e.ts_ns, e.dur_ns, e.track, e.args) for e in spans
        ] == [
            (e.ts_ns, e.dur_ns, e.track, e.args)
            for e in every_window.events()
        ]


class TestSubarrayConflictArithmetic:
    @pytest.mark.parametrize("policy_name", REFRESH_POLICIES)
    def test_range_test_equals_the_set_definition(self, policy_name):
        refresh = _refresh(policy_name)
        device = refresh.device
        rng = random.Random(12)
        for _ in range(400):
            window = refresh.window(rng.randrange(0, 10_000_000))
            busy = {device.subarray_of_row(r) for r in window.rows}
            near = window.rows.start + rng.randrange(
                -2 * device.rows_per_subarray, 2 * device.rows_per_subarray
            )
            for row in (rng.randrange(device.rows_per_bank), near):
                if 0 <= row < device.rows_per_bank:
                    assert refresh.random_allowed_in_window(row, window) == (
                        device.subarray_of_row(row) not in busy
                    )
