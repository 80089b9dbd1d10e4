"""Admission control: token buckets, tenant quotas, retry budget."""

import pytest

from repro.errors import ConfigError, OverloadError, RetryBudgetExhausted
from repro.fleet.admission import AdmissionController, TenantQuota, TokenBucket
from repro.fleet.retrybudget import RetryBudget
from repro.sim import CLOCK


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        with CLOCK.scoped(start_ns=0.0):
            bucket = TokenBucket(rate_per_s=1000.0, burst=3.0)
            assert bucket.try_take()
            assert bucket.try_take()
            assert bucket.try_take()
            assert not bucket.try_take()

    def test_refills_at_rate_against_sim_clock(self):
        with CLOCK.scoped(start_ns=0.0):
            # 1000/s = one token per simulated millisecond.
            bucket = TokenBucket(rate_per_s=1000.0, burst=1.0)
            assert bucket.try_take()
            assert not bucket.try_take()
            CLOCK.advance_ns(0.5e6)
            assert not bucket.try_take()
            CLOCK.advance_ns(0.5e6)
            assert bucket.try_take()

    def test_refill_caps_at_burst(self):
        with CLOCK.scoped(start_ns=0.0):
            bucket = TokenBucket(rate_per_s=1000.0, burst=2.0)
            CLOCK.advance_ns(60e9)  # a simulated minute of idle
            # Exactly one token short of 3: the bucket holds 2.
            assert bucket.retry_after_ns(3.0) == pytest.approx(1e6)

    def test_retry_after_names_the_refill_instant(self):
        with CLOCK.scoped(start_ns=0.0):
            bucket = TokenBucket(rate_per_s=1000.0, burst=1.0)
            assert bucket.try_take()
            hint = bucket.retry_after_ns()
            assert hint == pytest.approx(1e6)
            CLOCK.advance_ns(hint)
            assert bucket.try_take()

    def test_ended_borrowed_timeline_does_not_mint_tokens(self):
        # A borrowed timeline can read the bucket at its end instant and
        # then restore the clock behind the cursor; the interval it
        # covered must not be credited twice.
        with CLOCK.scoped(start_ns=0.0):
            bucket = TokenBucket(rate_per_s=1000.0, burst=5.0)
            for _ in range(5):
                assert bucket.try_take()
            CLOCK.set_ns(0.5e6)
            with CLOCK.scoped():
                CLOCK.advance_ns(1.5e6)  # earns 2 tokens by 2e6
                # One token short of 3, i.e. 2 held, at each read.
                assert bucket.retry_after_ns(3.0) == pytest.approx(1e6)
            assert CLOCK.now_ns() == 0.5e6
            assert bucket.retry_after_ns(3.0) == pytest.approx(1e6)
            CLOCK.set_ns(2e6)  # the next event reaches the same instant
            assert bucket.retry_after_ns(3.0) == pytest.approx(1e6)

    def test_validates(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ConfigError):
            TokenBucket(rate_per_s=10.0, burst=0.5)


class TestAdmissionController:
    def _controller(self, **overrides):
        kwargs = dict(
            name="t0", rate_per_s=1000.0, burst=2.0, capacity_pages=3
        )
        kwargs.update(overrides)
        return AdmissionController((TenantQuota(**kwargs),))

    def test_admits_within_quota(self):
        with CLOCK.scoped(start_ns=0.0):
            ctl = self._controller()
            ctl.admit("t0", "store")  # no raise

    def test_rate_quota_sheds_with_retry_after(self):
        with CLOCK.scoped(start_ns=0.0):
            ctl = self._controller()
            ctl.admit("t0", "store")
            ctl.admit("t0", "store")
            with pytest.raises(OverloadError) as info:
                ctl.admit("t0", "store")
            assert info.value.reason == "rate-quota"
            assert info.value.retry_after_ns > 0
            CLOCK.advance_ns(info.value.retry_after_ns)
            ctl.admit("t0", "store")  # tokens exist at the hinted instant

    def test_capacity_quota_sheds_stores_not_loads(self):
        with CLOCK.scoped(start_ns=0.0):
            ctl = self._controller(burst=16.0)
            for _ in range(3):
                ctl.on_page_stored("t0")
            with pytest.raises(OverloadError) as info:
                ctl.admit("t0", "store")
            assert info.value.reason == "capacity-quota"
            ctl.admit("t0", "load")  # loads drain capacity; never capped
            ctl.on_page_released("t0")
            ctl.admit("t0", "store")

    def test_shed_counters_by_result(self):
        with CLOCK.scoped(start_ns=0.0):
            ctl = self._controller(burst=1.0)
            ctl.admit("t0", "store")
            with pytest.raises(OverloadError):
                ctl.admit("t0", "store")
            snap = {
                (m.name, tuple(sorted(m.labels))): m.value
                for m in ctl.registry.metrics()
            }
            key = ("fleet.admission", (("result", "admitted"), ("tenant", "t0")))
            assert snap[key] == 1
            key = ("fleet.admission", (("result", "shed-rate"), ("tenant", "t0")))
            assert snap[key] == 1

    def test_unknown_tenant_is_config_error(self):
        with CLOCK.scoped(start_ns=0.0):
            ctl = self._controller()
            with pytest.raises(ConfigError):
                ctl.admit("nobody", "store")

    def test_degradable_excludes_premium(self):
        with CLOCK.scoped(start_ns=0.0):
            ctl = AdmissionController(
                (
                    TenantQuota(name="gold", rate_per_s=10.0, qos="premium"),
                    TenantQuota(name="b", rate_per_s=10.0),
                    TenantQuota(name="a", rate_per_s=10.0),
                )
            )
            assert ctl.degradable_tenants() == ("a", "b")


class TestRetryBudget:
    def test_spend_drains_then_refuses(self):
        budget = RetryBudget(initial=2.0, earn_fraction=0.0)
        budget.spend()
        budget.spend()
        with pytest.raises(RetryBudgetExhausted) as info:
            budget.spend(retry_after_ns=123.0)
        assert info.value.reason == "retry-budget"
        assert info.value.retry_after_ns == 123.0
        snapshot = budget.snapshot()
        assert (snapshot["spent"], snapshot["refused"]) == (2, 1)
        assert budget.registry.value("fleet.retry_budget", event="spent") == 2

    def test_earn_fraction_bounds_retry_amplification(self):
        # 10 admitted requests at earn_fraction=0.1 fund exactly one
        # retry — the governor's no-amplification algebra.
        budget = RetryBudget(initial=0.0, earn_fraction=0.1)
        for _ in range(10):
            budget.earn()
        budget.spend()
        with pytest.raises(RetryBudgetExhausted):
            budget.spend()

    def test_earn_caps(self):
        budget = RetryBudget(initial=0.0, earn_fraction=1.0, cap=3.0)
        for _ in range(100):
            budget.earn()
        assert budget.balance == pytest.approx(3.0)

    def test_validates(self):
        with pytest.raises(ConfigError):
            RetryBudget(earn_fraction=1.5)
        with pytest.raises(ConfigError):
            RetryBudget(initial=10.0, cap=5.0)
