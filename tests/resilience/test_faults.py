"""Fault-injection core: seeded determinism, gating, zero-cost default."""

import pytest

from repro.errors import ConfigError
from repro.resilience import faults
from repro.resilience.faults import (
    ALL_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    corrupt_bytes,
)
from repro.sim.context import current, run_context


def _drive(injector, site, calls):
    return [injector.evaluate(site) is not None for _ in range(calls)]


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        plan = FaultPlan(
            seed=42,
            specs=(FaultSpec(faults.DFM_LINK_ERROR, probability=0.3),),
        )
        first = _drive(FaultInjector(plan), faults.DFM_LINK_ERROR, 200)
        second = _drive(FaultInjector(plan), faults.DFM_LINK_ERROR, 200)
        assert first == second
        assert any(first)

    def test_different_seed_different_schedule(self):
        spec = FaultSpec(faults.DFM_LINK_ERROR, probability=0.3)
        a = _drive(
            FaultInjector(FaultPlan(seed=1, specs=(spec,))),
            faults.DFM_LINK_ERROR, 200,
        )
        b = _drive(
            FaultInjector(FaultPlan(seed=2, specs=(spec,))),
            faults.DFM_LINK_ERROR, 200,
        )
        assert a != b

    def test_sites_are_independent_streams(self):
        """Adding a site to the plan must not shift another site's
        schedule (per-site RNGs)."""
        link = FaultSpec(faults.DFM_LINK_ERROR, probability=0.3)
        nma = FaultSpec(faults.NMA_TIMEOUT, probability=0.3)
        alone = _drive(
            FaultInjector(FaultPlan(seed=9, specs=(link,))),
            faults.DFM_LINK_ERROR, 100,
        )
        both_injector = FaultInjector(FaultPlan(seed=9, specs=(link, nma)))
        interleaved = []
        for _ in range(100):
            interleaved.append(
                both_injector.evaluate(faults.DFM_LINK_ERROR) is not None
            )
            both_injector.evaluate(faults.NMA_TIMEOUT)
        assert alone == interleaved

    def test_event_salts_are_stable_and_distinct(self):
        plan = FaultPlan(
            seed=3, specs=(FaultSpec(faults.SPM_READ_FLIP, probability=1.0),)
        )
        injector = FaultInjector(plan)
        salts = [
            injector.evaluate(faults.SPM_READ_FLIP).salt for _ in range(4)
        ]
        replay = FaultInjector(plan)
        assert salts == [
            replay.evaluate(faults.SPM_READ_FLIP).salt for _ in range(4)
        ]
        assert len(set(salts)) == len(salts)


class TestGating:
    def test_skip_calls_and_max_fires(self):
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec(
                    faults.NMA_TIMEOUT,
                    probability=1.0,
                    skip_calls=3,
                    max_fires=2,
                ),
            ),
        )
        injector = FaultInjector(plan)
        fired = _drive(injector, faults.NMA_TIMEOUT, 10)
        assert fired == [False] * 3 + [True, True] + [False] * 5
        assert injector.fires[faults.NMA_TIMEOUT] == 2
        assert injector.calls[faults.NMA_TIMEOUT] == 10

    def test_unplanned_site_never_fires(self):
        injector = FaultInjector(FaultPlan(seed=1))
        assert injector.evaluate(faults.DFM_LINK_ERROR) is None
        assert injector.total_fires == 0

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec("not.a.site", probability=0.5)

    def test_duplicate_sites_rejected(self):
        spec = FaultSpec(faults.NMA_TIMEOUT, probability=0.5)
        with pytest.raises(ConfigError):
            FaultPlan(seed=1, specs=(spec, spec))

    def test_probability_validated(self):
        with pytest.raises(ConfigError):
            FaultSpec(faults.NMA_TIMEOUT, probability=1.5)


class TestGlobalSwitch:
    def test_disabled_by_default(self):
        assert not faults.injection_enabled()
        assert faults.fire(faults.DFM_LINK_ERROR) is None

    def test_context_manager_scopes_injection(self):
        plan = FaultPlan(
            seed=1, specs=(FaultSpec(faults.NMA_TIMEOUT, probability=1.0),)
        )
        injector = FaultInjector(plan)
        with run_context(injector=injector):
            assert faults.injection_enabled()
            assert faults.fire(faults.NMA_TIMEOUT) is not None
            assert current().injector is injector
        assert not faults.injection_enabled()
        assert current().injector is None


class TestCorruptBytes:
    def test_flips_exactly_one_bit(self):
        data = bytes(range(64))
        corrupted = corrupt_bytes(data, salt=12345)
        assert corrupted != data
        diff = [a ^ b for a, b in zip(data, corrupted)]
        assert sum(bin(d).count("1") for d in diff) == 1

    def test_deterministic_in_salt(self):
        data = b"hello world" * 10
        assert corrupt_bytes(data, 99) == corrupt_bytes(data, 99)
        assert corrupt_bytes(data, 99) != corrupt_bytes(data, 100)

    def test_empty_input_unchanged(self):
        assert corrupt_bytes(b"", 7) == b""


def test_all_sites_registry_is_complete():
    """Every documented site constant is in ALL_SITES exactly once."""
    assert len(set(ALL_SITES)) == len(ALL_SITES) == 10
