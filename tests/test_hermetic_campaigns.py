"""Campaigns borrow process state and memory, and give both back.

A fleet or chaos campaign runs in its own run context — a trace ring, a
flight recorder and, for chaos, a fault injector and maybe validation —
and rebases the shared simulated clock. When it returns, the enclosing
run context is current again (the same object) and the clock ticks are
as they were. Its object graph — session, trace ring, frontend,
shards, their pipelines and backends — is freed by reference counting
the moment the campaign returns, with the cyclic collector switched
off: nothing waits for the next full collection.
"""

import gc
import weakref

import pytest

from repro.dfm.backend import DfmBackend
from repro.fleet import harness
from repro.fleet.harness import FleetConfig, run_fleet
from repro.resilience.chaos import ChaosConfig, run_chaos
from repro.sim import CLOCK
from repro.sim.context import current

#: A short campaign: a few hundred requests over two shards.
SHORT = dict(
    seed=5, shards=2, steady_rate_rps=17_500.0, steady_ns=4e6,
    spike_ns=2e6, drain_guard_ns=1e6, recovery_ns=3e6,
)


class TestRestore:
    @pytest.mark.parametrize(
        "campaign",
        [
            lambda out: run_fleet(FleetConfig(**SHORT), out_dir=out),
            lambda out: run_fleet(
                FleetConfig(**SHORT, kill_shard_at_ns=5e6), out_dir=out
            ),
            lambda out: run_chaos(
                ChaosConfig(seed=7, ops=150, profile="full", validate=True),
                out_dir=out,
            ),
        ],
        ids=["fleet", "fleet-failover", "chaos"],
    )
    def test_module_state_is_back_after_the_campaign(self, tmp_path, campaign):
        CLOCK.set_ns(12_345.0)
        before, ticks = current(), CLOCK.now_ticks()
        campaign(tmp_path)
        assert (tmp_path / "trace.json").exists()
        assert current() is before and CLOCK.now_ticks() == ticks


def _watch(refs, campaign):
    """Weak references to everything one fleet campaign builds."""
    session = campaign.session
    refs["campaign"] = weakref.ref(campaign)
    refs["session"] = weakref.ref(session)
    refs["ring"] = weakref.ref(session.ring)
    refs["frontend"] = weakref.ref(campaign.frontend)
    for name, shard in campaign.frontend.shards.items():
        (dfm,) = [t for t in shard.pipeline.tiers if isinstance(t, DfmBackend)]
        refs[name] = weakref.ref(shard)
        refs[f"{name}.pipeline"] = weakref.ref(shard.pipeline)
        refs[f"{name}.dfm"] = weakref.ref(dfm)


class TestNoSurvivors:
    @pytest.mark.parametrize(
        "knobs", [{}, {"kill_shard_at_ns": 5e6}], ids=["steady", "failover"]
    )
    def test_a_finished_campaign_is_freed_without_the_collector(
        self, tmp_path, monkeypatch, knobs
    ):
        refs = {}
        build = harness._Campaign.__init__

        def watched(campaign, config, session):
            build(campaign, config, session)
            _watch(refs, campaign)

        monkeypatch.setattr(harness._Campaign, "__init__", watched)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            report = run_fleet(FleetConfig(**SHORT, **knobs), out_dir=tmp_path)
            survivors = sorted(name for name, ref in refs.items() if ref())
        finally:
            if was_enabled:
                gc.enable()
        assert report["verdict"]["acked_data_lost"] == 0
        assert len(refs) == 4 + 3 * SHORT["shards"]
        assert survivors == []
