"""Campaigns borrow process state and memory, give both back, and write
the same bytes whatever ran before them.

Every campaign of :data:`repro.campaigns.CAMPAIGNS` runs in its own
run context — a trace ring, a flight recorder and, for chaos or a
faulted replay, a fault injector and maybe validation — and rebases the
shared simulated clock. When it returns, the enclosing run context is
current again (the same object) and the clock ticks are as they were.
A fleet campaign's object graph — session, trace ring, frontend,
shards, their pipelines and backends — is freed by reference counting
the moment the campaign returns, with the cyclic collector switched
off: nothing waits for the next full collection. And the cheap
campaigns write byte-identical artifacts in any order, in one process.
"""

import contextlib
import gc
import hashlib
import io
import random
import weakref

import pytest

from repro.__main__ import command_parser, main
from repro.campaigns import CAMPAIGNS, run
from repro.dfm.backend import DfmBackend
from repro.fleet import harness
from repro.fleet.harness import FleetConfig, run_fleet
from repro.sim import CLOCK
from repro.sim.context import current

#: A short campaign: a few hundred requests over two shards.
SHORT = dict(
    seed=5, shards=2, steady_rate_rps=17_500.0, steady_ns=4e6,
    spike_ns=2e6, drain_guard_ns=1e6, recovery_ns=3e6,
)


#: A short command line per table campaign; the fleet twice, the second
#: time with a shard killed mid-spike.
LINES = {
    "fleet": "fleet --seed 5 --fleet-shards 2 --rate-rps 17500 "
    "--duration-scale 0.05",
    "fleet-failover": "fleet --seed 5 --fleet-shards 2 --rate-rps 17500 "
    "--duration-scale 0.05 --kill-shard-at-ms 3.5",
    "chaos": "chaos --seed 7 --ops 150 --profile full --validation",
    "trace": "trace zswap",
    "tiers": "tiers",
    "replay": "replay kv-cache --backend pipeline --validation",
    "slo": "slo --scenario web-session",
}

#: The campaigns cheap enough to run twice in tier-1 (~0.35 s a round).
CHEAP = ("trace", "tiers", "replay", "slo")


class TestRestore:
    def test_every_table_campaign_has_a_line(self):
        assert {line.split()[0] for line in LINES.values()} == set(CAMPAIGNS)

    @pytest.mark.parametrize("name", sorted(LINES))
    def test_module_state_is_back_after_the_campaign(self, tmp_path, name):
        command, *rest = LINES[name].split()
        campaign = CAMPAIGNS[command]
        args = command_parser(command).parse_args(rest)
        [(config, _)] = campaign.config(args)
        CLOCK.set_ns(12_345.0)
        before, ticks = current(), CLOCK.now_ticks()
        _, written = run(campaign, config, tmp_path)
        assert tmp_path / "trace.json" in written
        assert current() is before and CLOCK.now_ticks() == ticks


class TestOrder:
    @staticmethod
    def _artifacts(root, order, monkeypatch):
        """Run ``order`` in-process under ``root`` (relative ``--out``, as
        ``metrics.json`` embeds it); SHA-256 of every file written."""
        root.mkdir()
        monkeypatch.chdir(root)
        for name in order:
            before, ticks = current(), CLOCK.now_ticks()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([*LINES[name].split(), "--out", name]) == 0
            assert current() is before and CLOCK.now_ticks() == ticks, name
        return {
            str(path.relative_to(root)):
                hashlib.sha256(path.read_bytes()).hexdigest()
            for path in root.rglob("*") if path.is_file()
        }

    def test_artifacts_do_not_depend_on_the_order(self, tmp_path, monkeypatch):
        orders = [random.Random(seed).sample(CHEAP, 4) for seed in (1, 2)]
        assert orders[0] != orders[1]
        first, second = (
            self._artifacts(tmp_path / f"order-{i}", order, monkeypatch)
            for i, order in enumerate(orders)
        )
        assert len(first) == 10 and first == second


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
