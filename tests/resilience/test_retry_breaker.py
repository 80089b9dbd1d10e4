"""retry_with_backoff (simulated-time backoff) and the circuit breaker."""

import pytest

from repro.errors import ConfigError, DeviceFault
from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.retry import BackoffPolicy, retry_with_backoff
from repro.sim import CLOCK


class TestRetry:
    def test_succeeds_first_try(self):
        assert retry_with_backoff(lambda: 42) == 42

    def test_recovers_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise DeviceFault("transient")
            return "ok"

        policy = BackoffPolicy(max_attempts=3, base_delay_ns=1000)
        assert retry_with_backoff(flaky, policy=policy) == "ok"
        assert len(attempts) == 3

    def test_exhaustion_reraises(self):
        def broken():
            raise DeviceFault("permanent")

        policy = BackoffPolicy(max_attempts=3, base_delay_ns=10)
        with pytest.raises(DeviceFault):
            retry_with_backoff(broken, policy=policy)

    def test_backoff_advances_simulated_clock(self):
        """Backoff is simulated time (trace clock), never a wall sleep."""
        calls = []

        def flaky():
            calls.append(CLOCK.now_ns())
            if len(calls) < 3:
                raise DeviceFault("transient")

        CLOCK.set_ns(0.0)
        policy = BackoffPolicy(
            max_attempts=3, base_delay_ns=1000, multiplier=2.0
        )
        retry_with_backoff(flaky, policy=policy)
        # attempt 1 @0, +1000 -> attempt 2, +2000 -> attempt 3.
        assert calls == [0.0, 1000.0, 3000.0]

    def test_unlisted_exception_propagates_immediately(self):
        attempts = []

        def wrong_kind():
            attempts.append(1)
            raise KeyError("not retryable")

        with pytest.raises(KeyError):
            retry_with_backoff(wrong_kind)
        assert len(attempts) == 1

    def test_on_retry_called_per_retry(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise DeviceFault("transient")

        retry_with_backoff(
            flaky,
            policy=BackoffPolicy(max_attempts=3, base_delay_ns=1),
            on_retry=lambda attempt, exc: seen.append(attempt),
        )
        assert seen == [1, 2]

    def test_policy_validated(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(max_attempts=0)


class TestBreaker:
    def _breaker(self, **kwargs):
        defaults = dict(
            failure_threshold=3,
            window=8,
            error_rate_threshold=0.5,
            cooldown_ops=4,
            probes_to_close=2,
        )
        defaults.update(kwargs)
        return CircuitBreaker("t", config=BreakerConfig(**defaults))

    def test_starts_closed_and_allows(self):
        breaker = self._breaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_consecutive_failures_trip_open(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_success_resets_consecutive_count(self):
        breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_error_rate_trips_with_interleaved_successes(self):
        breaker = self._breaker(failure_threshold=100)
        for _ in range(4):
            breaker.record_success()
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_cooldown_then_half_open_probe_closes(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        # Cooldown: the first cooldown_ops allow() calls are refused.
        refused = [breaker.allow() for _ in range(4)]
        assert refused == [False, False, False, True]
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        for _ in range(4):
            breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        # A fresh full cooldown applies again.
        assert [breaker.allow() for _ in range(4)] == [
            False, False, False, True,
        ]

    def test_transition_callback_and_counts(self):
        seen = []
        breaker = CircuitBreaker(
            "dfm",
            config=BreakerConfig(
                failure_threshold=2, cooldown_ops=1, probes_to_close=1
            ),
            on_transition=lambda b, old, new: seen.append(
                (old.value, new.value)
            ),
        )
        breaker.record_failure()
        breaker.record_failure()
        breaker.allow()
        breaker.record_success()
        assert seen == [
            ("closed", "open"),
            ("open", "half_open"),
            ("half_open", "closed"),
        ]
        assert breaker.transitions["open"] == 1
        assert breaker.transitions["closed"] == 1

    def test_snapshot_shape(self):
        breaker = self._breaker()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["state"] == "closed"
        assert snap["consecutive_failures"] == 1
        assert set(snap) == {
            "state", "error_rate", "consecutive_failures", "transitions",
            "probe_successes_total", "probe_failures_total",
        }


class TestBreakerSimTimeCooldown:
    """cooldown_ns: the wall-of-sim-time variant — an OPEN breaker
    re-probes once the shared clock passes the deadline, regardless of
    how many operations were routed around it."""

    def _breaker(self, **overrides):
        config = BreakerConfig(
            failure_threshold=2,
            cooldown_ops=1000,  # would never elapse in these tests
            cooldown_ns=500.0,
            probes_to_close=1,
            **overrides,
        )
        return CircuitBreaker("xfm", config)

    def test_open_until_clock_passes_deadline(self):
        with CLOCK.scoped(start_ns=0.0):
            breaker = self._breaker()
            breaker.record_failure()
            breaker.record_failure()
            assert breaker.state is BreakerState.OPEN
            # No matter how many ops are routed around it, sim time
            # has not moved: still open.
            for _ in range(50):
                assert breaker.allow() is False
            CLOCK.advance_ns(499.0)
            assert breaker.allow() is False
            CLOCK.advance_ns(1.0)
            assert breaker.allow() is True
            assert breaker.state is BreakerState.HALF_OPEN

    def test_reopen_restarts_deadline_from_now(self):
        with CLOCK.scoped(start_ns=0.0):
            breaker = self._breaker()
            breaker.record_failure()
            breaker.record_failure()
            CLOCK.advance_ns(500.0)
            assert breaker.allow() is True
            breaker.record_failure()  # probe fails -> OPEN again
            assert breaker.state is BreakerState.OPEN
            CLOCK.advance_ns(499.0)
            assert breaker.allow() is False
            CLOCK.advance_ns(1.0)
            assert breaker.allow() is True

    def test_backoff_charges_tick_the_cooldown(self):
        """Retry backoff and breaker cool-down share one timeline: the
        backoff charge alone can re-arm an open breaker."""
        with CLOCK.scoped(start_ns=0.0):
            breaker = self._breaker()
            breaker.record_failure()
            breaker.record_failure()
            assert breaker.allow() is False

            def flaky():
                if CLOCK.now_ns() < 3000.0:
                    raise DeviceFault("transient")

            retry_with_backoff(
                flaky,
                policy=BackoffPolicy(
                    max_attempts=4, base_delay_ns=1000.0, multiplier=2.0
                ),
            )
            assert CLOCK.now_ns() >= 500.0
            assert breaker.allow() is True

    def test_cooldown_ns_validated(self):
        with pytest.raises(ConfigError):
            BreakerConfig(cooldown_ns=0.0)
        with pytest.raises(ConfigError):
            BreakerConfig(cooldown_ns=-5.0)


class TestRetryJitter:
    """BackoffPolicy.jitter: seeded, deterministic; bit-identical off."""

    def test_zero_jitter_is_bit_identical_with_or_without_rng(self):
        import random

        policy = BackoffPolicy(
            max_attempts=5, base_delay_ns=1000.0, multiplier=2.0
        )
        for attempt in range(1, 5):
            bare = policy.delay_ns(attempt)
            with_rng = policy.delay_ns(attempt, rng=random.Random(123))
            assert bare == with_rng  # exact, not approx

    def test_jitter_without_rng_is_exact_nominal(self):
        policy = BackoffPolicy(
            max_attempts=3, base_delay_ns=1000.0, multiplier=2.0, jitter=0.5
        )
        assert policy.delay_ns(1) == 1000.0
        assert policy.delay_ns(2) == 2000.0

    def test_seeded_jitter_is_deterministic(self):
        import random

        policy = BackoffPolicy(
            max_attempts=5, base_delay_ns=1000.0, multiplier=2.0, jitter=0.3
        )
        a = [policy.delay_ns(i, rng=random.Random(9)) for i in range(1, 5)]
        b = [policy.delay_ns(i, rng=random.Random(9)) for i in range(1, 5)]
        assert a == b

    def test_jitter_only_shrinks_within_fraction(self):
        import random

        policy = BackoffPolicy(
            max_attempts=3, base_delay_ns=1000.0, multiplier=1.0, jitter=0.3
        )
        rng = random.Random(42)
        for _ in range(200):
            delay = policy.delay_ns(1, rng=rng)
            # Decorrelating *early* retries can never push a client past
            # the nominal deadline it already promised.
            assert 700.0 <= delay <= 1000.0

    def test_retry_with_backoff_jitter_deterministic_end_to_end(self):
        import random

        policy = BackoffPolicy(
            max_attempts=3, base_delay_ns=1000.0, multiplier=2.0, jitter=0.4
        )

        def run():
            calls = []

            def flaky():
                calls.append(CLOCK.now_ns())
                if len(calls) < 3:
                    raise DeviceFault("transient")

            CLOCK.set_ns(0.0)
            retry_with_backoff(flaky, policy=policy, rng=random.Random(5))
            return calls

        first, second = run(), run()
        assert first == second
        # Jitter actually moved the retry instants off nominal.
        assert first[1] != 1000.0 or first[2] != 3000.0

    def test_jitter_validated(self):
        with pytest.raises(ConfigError):
            BackoffPolicy(jitter=-0.1)
        with pytest.raises(ConfigError):
            BackoffPolicy(jitter=1.0)


class TestBreakerSchedulerDriven:
    """cooldown_ns breakers driven by EventScheduler events: the re-arm
    must happen exactly at the scheduled tick, and equal-tick events
    observe it in stable schedule order."""

    def _open_breaker(self, cooldown_ns=500.0):
        breaker = CircuitBreaker(
            "t",
            config=BreakerConfig(
                failure_threshold=2,
                window=4,
                error_rate_threshold=0.9,
                cooldown_ns=cooldown_ns,
                probes_to_close=1,
            ),
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        return breaker

    def test_rearm_exactly_at_scheduled_tick(self):
        from repro.sim import EventScheduler

        with CLOCK.scoped(start_ns=0.0):
            breaker = self._open_breaker(cooldown_ns=500.0)
            scheduler = EventScheduler()
            observed = []
            # One tick before the deadline the breaker still refuses;
            # at the deadline tick the half-open probe is allowed.
            scheduler.schedule(
                499.999999, lambda: observed.append(("before", breaker.allow()))
            )
            scheduler.schedule(
                500.0, lambda: observed.append(("at", breaker.allow()))
            )
            scheduler.run()
            assert observed == [("before", False), ("at", True)]
            assert breaker.state is BreakerState.HALF_OPEN

    def test_equal_tick_events_see_stable_order(self):
        from repro.sim import EventScheduler

        with CLOCK.scoped(start_ns=0.0):
            breaker = self._open_breaker(cooldown_ns=500.0)
            scheduler = EventScheduler()
            observed = []
            # Three same-tick events at the deadline: the first scheduled
            # gets the half-open probe slot; the probe's success closes
            # the breaker for the rest — deterministically in schedule
            # order, never heap-arbitrary.
            def probe():
                observed.append(("probe", breaker.allow()))
                breaker.record_success()

            scheduler.schedule(500.0, probe)
            scheduler.schedule(
                500.0, lambda: observed.append(("second", breaker.allow()))
            )
            scheduler.schedule(
                500.0, lambda: observed.append(("third", breaker.state))
            )
            scheduler.run()
            assert observed == [
                ("probe", True),
                ("second", True),
                ("third", BreakerState.CLOSED),
            ]

    def test_failed_probe_rearms_from_probe_instant(self):
        from repro.sim import EventScheduler

        with CLOCK.scoped(start_ns=0.0):
            breaker = self._open_breaker(cooldown_ns=500.0)
            scheduler = EventScheduler()
            observed = []

            def failing_probe():
                assert breaker.allow() is True
                breaker.record_failure()  # probe fails: back to OPEN

            scheduler.schedule(500.0, failing_probe)
            # The new deadline is 500 ns after the *failed probe*, not
            # after the original trip.
            scheduler.schedule(
                999.0, lambda: observed.append(("early", breaker.allow()))
            )
            scheduler.schedule(
                1000.0, lambda: observed.append(("rearmed", breaker.allow()))
            )
            scheduler.run()
            assert observed == [("early", False), ("rearmed", True)]
            assert breaker.snapshot()["probe_failures_total"] == 1

    def test_probe_counters_accumulate_across_scheduled_cycles(self):
        from repro.sim import EventScheduler

        with CLOCK.scoped(start_ns=0.0):
            breaker = self._open_breaker(cooldown_ns=100.0)
            scheduler = EventScheduler()

            def fail_probe():
                if breaker.allow():
                    breaker.record_failure()

            def ok_probe():
                if breaker.allow():
                    breaker.record_success()

            scheduler.schedule(100.0, fail_probe)
            scheduler.schedule(200.0, fail_probe)
            scheduler.schedule(300.0, ok_probe)
            scheduler.run()
            snap = breaker.snapshot()
            assert snap["probe_failures_total"] == 2
            assert snap["probe_successes_total"] == 1
            assert breaker.state is BreakerState.CLOSED
