"""Brownout controller: hysteresis, residency, enter/exit actions."""

import pytest

from repro.errors import ConfigError
from repro.fleet.brownout import BrownoutConfig, BrownoutController
from repro.sim import CLOCK


def _window(controller, sheds, serves):
    for _ in range(sheds):
        controller.record(shed=True)
    for _ in range(serves):
        controller.record(shed=False)
    controller.evaluate_window()


@pytest.fixture
def config():
    return BrownoutConfig(
        enter_shed_rate=0.10,
        exit_shed_rate=0.02,
        enter_windows=2,
        exit_windows=3,
        window_ns=1000.0,
    )


class TestHysteresis:
    def test_single_bad_window_does_not_enter(self, config):
        with CLOCK.scoped(start_ns=0.0):
            ctl = BrownoutController(config)
            _window(ctl, sheds=5, serves=5)  # 50% shed, one window
            assert not ctl.active
            _window(ctl, sheds=0, serves=10)  # streak broken
            _window(ctl, sheds=5, serves=5)
            assert not ctl.active

    def test_consecutive_bad_windows_enter(self, config):
        with CLOCK.scoped(start_ns=0.0):
            fired = []
            ctl = BrownoutController(config, on_enter=lambda: fired.append("in"))
            _window(ctl, sheds=5, serves=5)
            _window(ctl, sheds=5, serves=5)
            assert ctl.active
            assert fired == ["in"]
            assert ctl.snapshot()["entries"] == 1
            assert ctl.registry.value(
                "fleet.brownout.transitions", to="brownout"
            ) == 1

    def test_exit_needs_consecutive_quiet_windows(self, config):
        with CLOCK.scoped(start_ns=0.0):
            fired = []
            ctl = BrownoutController(config, on_exit=lambda: fired.append("out"))
            _window(ctl, sheds=5, serves=5)
            _window(ctl, sheds=5, serves=5)
            assert ctl.active
            _window(ctl, sheds=0, serves=10)
            _window(ctl, sheds=0, serves=10)
            _window(ctl, sheds=1, serves=9)  # 10% > exit rate: streak resets
            _window(ctl, sheds=0, serves=10)
            _window(ctl, sheds=0, serves=10)
            assert ctl.active
            _window(ctl, sheds=0, serves=10)
            assert not ctl.active
            assert fired == ["out"]

    def test_empty_windows_count_toward_exit(self, config):
        # A fully-shed-quiet system (nothing offered at all) must still
        # recover: empty windows read as zero shed rate.
        with CLOCK.scoped(start_ns=0.0):
            ctl = BrownoutController(config)
            _window(ctl, sheds=5, serves=5)
            _window(ctl, sheds=5, serves=5)
            assert ctl.active
            for _ in range(3):
                ctl.evaluate_window()
            assert not ctl.active

    def test_residency_accumulates_sim_time(self, config):
        with CLOCK.scoped(start_ns=0.0):
            ctl = BrownoutController(config)
            _window(ctl, sheds=5, serves=5)
            _window(ctl, sheds=5, serves=5)
            entered_at = CLOCK.now_ns()
            CLOCK.advance_ns(5000.0)
            assert ctl.total_residency_ns() == pytest.approx(
                CLOCK.now_ns() - entered_at
            )
            for _ in range(3):
                ctl.evaluate_window()
            assert not ctl.active
            closed = ctl.total_residency_ns()
            CLOCK.advance_ns(1e6)
            assert ctl.total_residency_ns() == pytest.approx(closed)

    def test_counters_on_transitions(self, config):
        with CLOCK.scoped(start_ns=0.0):
            ctl = BrownoutController(config)
            _window(ctl, sheds=5, serves=5)
            _window(ctl, sheds=5, serves=5)
            for _ in range(3):
                ctl.evaluate_window()
            values = {
                tuple(sorted(m.labels)): m.value
                for m in ctl.registry.metrics()
                if m.name == "fleet.brownout.transitions"
            }
            assert values[(("to", "brownout"),)] == 1
            assert values[(("to", "normal"),)] == 1


class TestConfigValidation:
    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ConfigError):
            BrownoutConfig(enter_shed_rate=0.01, exit_shed_rate=0.05)

    def test_rejects_zero_windows(self):
        with pytest.raises(ConfigError):
            BrownoutConfig(enter_windows=0)
        with pytest.raises(ConfigError):
            BrownoutConfig(window_ns=0.0)
