"""SimClock: tick exactness, monotonic advance, scoped save/restore."""

import pytest

from repro.errors import ConfigError
from repro.sim import CLOCK, SimClock, TICKS_PER_NS, ns_to_ticks, ticks_to_ns


class TestTickExactness:
    def test_short_decimal_ns_round_trip_exactly(self):
        # 10^6 ticks/ns = 2^6 * 5^6, so every short-decimal ns value the
        # repo uses survives ns -> ticks -> ns without error.
        for value in (0.0, 1.0, 2.5, 1000.0, 3906.25, 410.0, 195.3125):
            assert ticks_to_ns(ns_to_ticks(value)) == value

    def test_trefi_multiples_match_float_multiplication(self):
        # The golden traces were produced by `ref * 3906.25` in floats;
        # the tick path must reproduce those bit-for-bit.
        trefi_ns = 3906.25
        trefi_ticks = ns_to_ticks(trefi_ns)
        for ref in (0, 1, 7, 8191, 10**6):
            assert ticks_to_ns(ref * trefi_ticks) == ref * trefi_ns

    def test_advance_accumulates_without_drift(self):
        clock = SimClock()
        for _ in range(10_000):
            clock.advance_ns(3906.25)
        assert clock.now_ns() == 10_000 * 3906.25
        assert clock.now_ticks() == 10_000 * ns_to_ticks(3906.25)

    def test_ticks_per_ns_is_femtoseconds(self):
        assert TICKS_PER_NS == 1_000_000


class TestMonotonicAdvance:
    def test_negative_advance_raises(self):
        clock = SimClock(start_ns=100.0)
        with pytest.raises(ConfigError):
            clock.advance_ns(-1.0)
        assert clock.now_ns() == 100.0

    def test_set_may_rewind(self):
        # set_* is the timeline-owner API: rewinding is allowed there.
        clock = SimClock(start_ns=100.0)
        clock.set_ns(5.0)
        assert clock.now_ns() == 5.0

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance_ns(2.5) == 2.5
        assert clock.advance_ns(0.0) == 2.5


class TestScoping:
    def test_save_restore_round_trip(self):
        # A scope without a start time borrows the timeline where it is.
        clock = SimClock(start_ns=42.0)
        with clock.scoped():
            clock.advance_ns(1000.0)
            assert clock.now_ns() == 1042.0
        assert clock.now_ns() == 42.0

    def test_scoped_restores_on_exit(self):
        clock = SimClock(start_ns=7.0)
        with clock.scoped(start_ns=0.0):
            clock.advance_ns(500.0)
            assert clock.now_ns() == 500.0
        assert clock.now_ns() == 7.0

    def test_scoped_restores_on_error(self):
        clock = SimClock(start_ns=7.0)
        with pytest.raises(RuntimeError):
            with clock.scoped(start_ns=0.0):
                raise RuntimeError("boom")
        assert clock.now_ns() == 7.0

    def test_nested_scopes_compose_like_a_stack(self):
        clock = SimClock(start_ns=1.0)
        with clock.scoped(start_ns=10.0):
            clock.advance_ns(5.0)
            with clock.scoped(start_ns=100.0):
                clock.advance_ns(50.0)
                assert clock.now_ns() == 150.0
            assert clock.now_ns() == 15.0
        assert clock.now_ns() == 1.0

    def test_nested_scopes_restore_in_order_when_the_inner_raises(self):
        clock = SimClock(start_ns=1.0)
        outer = clock.scoped(start_ns=10.0)
        with outer as entered:
            assert entered is clock
            clock.advance_ns(5.0)
            with pytest.raises(RuntimeError):
                with clock.scoped(start_ns=100.0):
                    clock.advance_ns(50.0)
                    with clock.scoped():
                        clock.advance_ns(1.0)
                        raise RuntimeError("boom")
            assert clock.now_ns() == 15.0
        assert clock.now_ns() == 1.0
        # A scope object can be entered again once it has exited.
        with outer:
            assert clock.now_ns() == 10.0
        assert clock.now_ns() == 1.0

    def test_scoped_without_start_keeps_current_time(self):
        clock = SimClock(start_ns=9.0)
        with clock.scoped():
            assert clock.now_ns() == 9.0
            clock.set_ns(77.0)
        assert clock.now_ns() == 9.0


class TestSharedInstance:
    def test_module_clock_is_a_simclock(self):
        assert isinstance(CLOCK, SimClock)
